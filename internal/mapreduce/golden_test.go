package mapreduce

import (
	"testing"
	"time"
)

// TestGoldenModelledTime pins the exact fault-free Result.Virtual, in
// nanoseconds, of a multi-wave wordcount on several clusters. Any change
// to the scheduler or the cost model that moves a modelled time fails
// here; update the figures only for a deliberate model change.
func TestGoldenModelledTime(t *testing.T) {
	cases := []struct {
		name string
		c    Cluster
		want time.Duration
	}{
		{"chaosCluster", chaosCluster, 44020816000},
		{"stragglers", stragglerCluster(false), 59022816000},
		{"stragglers-speculative", stragglerCluster(true), 47021216000},
		{"zero-cost", Cluster{Nodes: 4, SlotsPerNode: 2}, 0},
		{"sub-millisecond", Cluster{Nodes: 4, SlotsPerNode: 2, Cost: CostModel{MapPerRecord: 100 * time.Microsecond, ReducePerRecord: 30 * time.Microsecond}}, 5000000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := MustEngine(tc.c).Run(wordCountJob(manyLines(100), false))
			if err != nil {
				t.Fatal(err)
			}
			if res.Virtual != tc.want {
				t.Errorf("Virtual = %d ns, want %d", int64(res.Virtual), int64(tc.want))
			}
		})
	}
}
