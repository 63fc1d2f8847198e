package mapreduce

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/metagenomics/mrmcminh/internal/faults"
)

// refPlacement is where and when the reference scheduler ran one task.
type refPlacement struct {
	Node, Slot int
	Start, End time.Duration
}

// referenceSchedule is the plain list scheduler of Hadoop's fault-free
// wave scheduling: tasks in longest-processing-time order (stable by
// index), each onto the slot that frees up first (the lowest slot on
// ties), with the cost model's straggler model applied. It returns the
// per-task placements, by task index, and the makespan. The engine's
// simulator must reproduce it exactly when no injector is attached.
func referenceSchedule(c Cluster, tasks []TaskCost) ([]refPlacement, time.Duration) {
	slots := make([]time.Duration, c.TotalSlots())
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return tasks[order[a]].Duration > tasks[order[b]].Duration
	})
	placements := make([]refPlacement, len(tasks))
	var makespan time.Duration
	for _, ti := range order {
		d := c.effectiveDuration(ti, tasks[ti].Duration)
		best := 0
		for s := 1; s < len(slots); s++ {
			if slots[s] < slots[best] {
				best = s
			}
		}
		placements[ti] = refPlacement{Node: best / c.SlotsPerNode, Slot: best, Start: slots[best], End: slots[best] + d}
		slots[best] += d
		makespan = max(makespan, slots[best])
	}
	return placements, makespan
}

// randomPhaseCosts draws n task costs mixing zero, sub-millisecond, tied
// and spread-out durations.
func randomPhaseCosts(rng *rand.Rand, n int) []TaskCost {
	tasks := make([]TaskCost, n)
	for i := range tasks {
		switch rng.Intn(4) {
		case 0:
			// zero-cost task
		case 1:
			tasks[i].Duration = time.Duration(rng.Int63n(int64(time.Millisecond)))
		case 2:
			tasks[i].Duration = time.Duration(1+rng.Intn(3)) * time.Second
		default:
			tasks[i].Duration = time.Duration(rng.Int63n(int64(time.Minute)))
		}
	}
	return tasks
}

// TestFaultFreeSimMatchesReferenceSchedule pins the simulator with no
// injector to the reference list scheduler: every task's node, slot,
// start and end, and the makespan, for a map phase and a reduce phase
// behind the barrier, on random clusters with and without stragglers and
// speculative execution. CHAOS_SEED selects the cost sets.
func TestFaultFreeSimMatchesReferenceSchedule(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 300; trial++ {
			c := Cluster{Nodes: 1 + rng.Intn(6), SlotsPerNode: 1 + rng.Intn(3), Cost: DefaultCostModel}
			if rng.Intn(3) > 0 {
				c.Cost.StragglerFraction = 0.2
				c.Cost.StragglerSlowdown = 4
				c.Speculative = rng.Intn(2) == 0
			}
			mapCosts := randomPhaseCosts(rng, rng.Intn(40))
			reduceCosts := randomPhaseCosts(rng, 1+rng.Intn(12))
			wantMap, mapSpan := referenceSchedule(c, mapCosts)
			wantReduce, reduceSpan := referenceSchedule(c, reduceCosts)

			sim := newFaultSim(c, nil, RetryPolicy{}, "ref", 0, len(mapCosts)+len(reduceCosts))
			mapTasks := newTasks(mapCosts, 0)
			if err := sim.runPhase(faults.PhaseMap, mapTasks); err != nil {
				t.Fatal(err)
			}
			if got := maxTaskEnd(mapTasks); got != mapSpan {
				t.Fatalf("seed %d trial %d: map makespan %d, reference %d", seed, trial, got, mapSpan)
			}
			sim.barrier(mapSpan)
			reduceTasks := newTasks(reduceCosts, mapSpan)
			if err := sim.runPhase(faults.PhaseReduce, reduceTasks); err != nil {
				t.Fatal(err)
			}
			if got := sim.makespan(); got != mapSpan+reduceSpan {
				t.Fatalf("seed %d trial %d: makespan %d, reference %d", seed, trial, got, mapSpan+reduceSpan)
			}
			if got := c.Makespan(mapCosts); got != mapSpan {
				t.Fatalf("seed %d trial %d: Cluster.Makespan %d, reference %d", seed, trial, got, mapSpan)
			}
			if len(sim.attempts) != len(mapCosts)+len(reduceCosts) {
				t.Fatalf("seed %d trial %d: %d attempts for %d tasks", seed, trial, len(sim.attempts), len(mapCosts)+len(reduceCosts))
			}
			check := func(phase string, tasks []simTask, want []refPlacement, offset time.Duration) {
				for i, task := range tasks {
					a := sim.attempts[task.final]
					w := want[i]
					if a.Outcome != AttemptSuccess || a.Attempt != 1 || a.Node != w.Node || a.Slot != w.Slot ||
						a.Start != offset+w.Start || a.End != offset+w.End {
						t.Fatalf("seed %d trial %d %s task %d: got %+v, reference %+v (offset %d)", seed, trial, phase, i, a, w, offset)
					}
				}
			}
			check(faults.PhaseMap, mapTasks, wantMap, 0)
			check(faults.PhaseReduce, reduceTasks, wantReduce, mapSpan)
		}
	}
}
