package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/metagenomics/mrmcminh/internal/checkpoint"
	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
	"github.com/metagenomics/mrmcminh/internal/metrics"
)

// TestStoreBackedBitIdenticalToSlices pins the store-backed pipeline
// (StoreBits == 0, the default) bit-identical to the brute-force
// references over plain signature slices (oracle_test.go) across modes,
// the LSH greedy accelerator and both candidate generators, for every
// chaos seed.
func TestStoreBackedBitIdenticalToSlices(t *testing.T) {
	for _, seed := range resumeSeeds(t) {
		cases := []struct {
			name string
			mut  func(*Options)
		}{
			{"greedy", func(o *Options) { o.Mode = GreedyMode }},
			{"greedy-lsh", func(o *Options) { o.Mode = GreedyMode; o.UseLSH = true }},
			{"hierarchical", func(o *Options) { o.Mode = HierarchicalMode }},
			{"greedy-candlsh", func(o *Options) { o.Mode = GreedyMode; o.Candidate = CandidateLSH }},
			{"hierarchical-candlsh", func(o *Options) { o.Mode = HierarchicalMode; o.Candidate = CandidateLSH }},
		}
		// The noisy reads put many pairs near θ, where banding misses
		// some, so the LSH cases differ from the exact ones.
		for _, set := range []struct {
			tag     string
			mutRate float64
		}{{"", 0.01}, {"noisy-", 0.06}} {
			reads, _ := makeReads(4, 6, 200, set.mutRate, seed)
			for _, tc := range cases {
				t.Run(fmt.Sprintf("seed=%d/%s%s", seed, set.tag, tc.name), func(t *testing.T) {
					opt := Options{
						K: 8, NumHashes: 40, Theta: 0.4,
						Seed: seed, Cluster: smallCluster(),
					}
					tc.mut(&opt)
					got, err := Run(reads, opt)
					if err != nil {
						t.Fatal(err)
					}
					if want := refRun(t, reads, opt); !reflect.DeepEqual(got.Assignments, want) {
						t.Fatalf("store-backed clustering %v differs from the reference %v", got.Assignments, want)
					}
					if got.Counters["sigstore.resident_bytes"] != int64(len(reads)*opt.NumHashes*8) {
						t.Fatalf("sigstore.resident_bytes = %d, want %d",
							got.Counters["sigstore.resident_bytes"], len(reads)*opt.NumHashes*8)
					}
					if got.Counters["sigstore.reads"] != int64(len(reads)) {
						t.Fatalf("sigstore.reads = %d", got.Counters["sigstore.reads"])
					}
				})
			}
		}
	}
}

// TestStoreBackedBitIdenticalUnderChaosAndSpill drives the store-backed
// default through fault injection and the external spill shuffle at once
// and requires bit-identity with the brute-force reference.
func TestStoreBackedBitIdenticalUnderChaosAndSpill(t *testing.T) {
	reads, _ := makeReads(4, 6, 200, 0.01, 7)
	for _, mode := range []Mode{GreedyMode, HierarchicalMode} {
		t.Run(mode.String(), func(t *testing.T) {
			opt := Options{
				K: 8, NumHashes: 40, Theta: 0.4, Mode: mode,
				Seed: 7, Cluster: smallCluster(),
			}
			chaos := opt
			chaos.ShuffleBufferBytes = 256 // force record-at-a-time spills
			chaos.Retry = mapreduce.RetryPolicy{MaxAttempts: 4}
			plan := faults.ChaosPlan(11)
			plan.NodeDeaths = []faults.NodeDeath{{Node: 1, At: 20 * time.Second}}
			chaos.Faults = faults.MustNew(plan)
			got, err := Run(reads, chaos)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Assignments, refRun(t, reads, opt)) {
				t.Fatal("chaos + spill over the store changed the clustering")
			}
			if chaos.Faults.Injected() == 0 {
				t.Fatal("the chaos plan injected nothing")
			}
			// Only the greedy job shuffles signature records through a
			// reducer; the hierarchical path is map-only and never spills.
			if mode == GreedyMode && got.Counters[mapreduce.CounterShuffleSpills] == 0 {
				t.Fatal("expected external shuffle spills at a 256-byte buffer")
			}
		})
	}
}

// TestStoreBackedResumeInterop pins the journal of a full-width run to
// what every earlier build wrote — the sketch checkpoint is the signature
// codec of the sketched reads, the greedy entry records estimator=1 — and
// checks that a crashed run resumes from it bit-identically.
func TestStoreBackedResumeInterop(t *testing.T) {
	reads, _ := makeReads(3, 5, 180, 0.01, 3)
	base := Options{
		K: 8, NumHashes: 40, Theta: 0.4, Mode: GreedyMode,
		Seed: 3, Cluster: smallCluster(),
	}
	want, err := Run(reads, base)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	first := base
	first.Checkpoint = openJournal(t, dir)
	first.Faults = faults.MustNew(faults.Plan{
		DriverCrashes: []faults.DriverCrash{{AfterStage: StageGreedy}},
	})
	var dce *faults.DriverCrashError
	if _, err := Run(reads, first); !errors.As(err, &dce) {
		t.Fatalf("expected driver crash, got %v", err)
	}
	journal := openJournal(t, dir)
	sigBytes := encodeSignatures(refSketch(t, reads, base))
	for _, stage := range []struct {
		name, inputs string
		params       map[string]string
		want         []byte
	}{
		{StageSketch, HashReads(reads), map[string]string{"k": "8", "num_hashes": "40", "canonical": "false", "seed": "3"}, sigBytes},
		{StageGreedy, checkpoint.HashBytes(sigBytes), map[string]string{"theta": "0.4", "estimator": "1", "use_lsh": "false"}, encodeLabels(want.Assignments)},
	} {
		e, ok, err := journal.Validate(stage.name, stage.inputs, stage.params)
		if err != nil || !ok {
			t.Fatalf("%s entry: ok=%v err=%v", stage.name, ok, err)
		}
		data, err := journal.Load(e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, stage.want) {
			t.Fatalf("the %s checkpoint differs from the codec every earlier build wrote", stage.name)
		}
	}

	resumed := base
	resumed.Checkpoint = journal
	resumed.Resume = ResumeOn
	res, err := Run(reads, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Assignments, want.Assignments) {
		t.Fatal("resume changed the clustering")
	}
	if !reflect.DeepEqual(res.SkippedStages, []string{StageSketch, StageGreedy}) {
		t.Fatalf("skipped %v, want [sketch greedy]", res.SkippedStages)
	}
}

// TestPackedStoreResume checks the packed sketch checkpoint (a store
// snapshot): a packed run resumes bit-identically from its own journal,
// and mixing packed and unpacked journals is a typed parameter mismatch.
func TestPackedStoreResume(t *testing.T) {
	reads, _ := makeReads(3, 5, 180, 0.01, 4)
	packed := Options{
		K: 8, NumHashes: 40, Theta: 0.4, Mode: GreedyMode,
		Seed: 4, Cluster: smallCluster(), StoreBits: 4,
	}
	want, err := Run(reads, packed)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	first := packed
	first.Checkpoint = openJournal(t, dir)
	first.Faults = faults.MustNew(faults.Plan{
		DriverCrashes: []faults.DriverCrash{{AfterStage: StageSketch}},
	})
	if _, err := Run(reads, first); err == nil {
		t.Fatal("expected driver crash")
	}

	resumed := packed
	resumed.Checkpoint = openJournal(t, dir)
	resumed.Resume = ResumeOn
	res, err := Run(reads, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Assignments, want.Assignments) {
		t.Fatal("packed resume changed the clustering")
	}
	if !reflect.DeepEqual(res.SkippedStages, []string{StageSketch}) {
		t.Fatalf("skipped %v", res.SkippedStages)
	}

	// A full-width run against the packed journal must fail typed, not
	// misparse the snapshot as the signature codec.
	mixed := packed
	mixed.StoreBits = 0
	mixed.Checkpoint = openJournal(t, dir)
	mixed.Resume = ResumeOn
	var pme *checkpoint.ParamMismatchError
	if _, err := Run(reads, mixed); !errors.As(err, &pme) {
		t.Fatalf("expected ParamMismatchError, got %v", err)
	}
}

// TestPackedPipelineRecoversGroups is the packed-mode sanity check: b=4
// estimation is lossy, but on well-separated read groups it must recover
// the same partition as the exact full-width run.
func TestPackedPipelineRecoversGroups(t *testing.T) {
	reads, truth := makeReads(4, 6, 200, 0.01, 6)
	for _, bits := range []int{1, 4} {
		t.Run(fmt.Sprintf("b=%d", bits), func(t *testing.T) {
			opt := Options{
				K: 8, NumHashes: 64, Theta: 0.4, Mode: GreedyMode,
				Seed: 6, Cluster: smallCluster(), StoreBits: bits,
			}
			res, err := Run(reads, opt)
			if err != nil {
				t.Fatal(err)
			}
			acc, err := metrics.WeightedAccuracy(res.Assignments, truth)
			if err != nil {
				t.Fatal(err)
			}
			if acc < 99.9 {
				t.Fatalf("b=%d packed clustering accuracy %.2f%%", bits, acc)
			}
			if res.NumClusters() != 4 {
				t.Fatalf("b=%d: %d clusters, want 4", bits, res.NumClusters())
			}
			// Packed mode reports the compressed footprint.
			fullBytes := int64(len(reads) * opt.NumHashes * 8)
			if got := res.Counters["sigstore.resident_bytes"]; got*8 > fullBytes {
				t.Fatalf("packed resident bytes %d not ≥8x below full %d", got, fullBytes)
			}
		})
	}
}
