package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// simrowsReads is makeReads plus the shapes the row kernel must not
// trip over: reads shorter than k (empty signatures) and exact copies.
func simrowsReads() []fasta.Record {
	reads, _ := makeReads(4, 8, 200, 0.02, 23)
	reads = append(reads,
		fasta.Record{ID: "short1", Seq: []byte("ACG")},
		fasta.Record{ID: "dup", Seq: reads[3].Seq},
		fasta.Record{ID: "short2", Seq: nil},
	)
	return append(reads, reads[5])
}

// requireSameMatrix compares two matrices cell for cell on their bits.
func requireSameMatrix(t *testing.T, name string, got, want *cluster.Matrix) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: %d×%d matrix, want %d×%d", name, got.N(), got.N(), want.N(), want.N())
	}
	for i := 0; i < got.N(); i++ {
		for j := 0; j < got.N(); j++ {
			if g, w := got.Get(i, j), want.Get(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: cell (%d,%d) = %v, want %v", name, i, j, g, w)
			}
		}
	}
}

// TestSimilarityJobMatchesReferenceMatrix pins the simrows job — the
// postings row kernel on a full-width store, the per-pair loop on a
// packed one — to refMatrix's float32 cells at StoreBits 0, and to
// per-pair view.Similarity on a 4-bit packed store.
func TestSimilarityJobMatchesReferenceMatrix(t *testing.T) {
	reads := simrowsReads()
	for _, k := range []int{3, 8} {
		for _, bits := range []int{0, 4} {
			name := fmt.Sprintf("k=%d/bits=%d", k, bits)
			opt := Options{K: k, NumHashes: 40, StoreBits: bits, Seed: 3, Cluster: smallCluster()}.withDefaults()
			engine, err := mapreduce.NewEngine(opt.Cluster)
			if err != nil {
				t.Fatal(err)
			}
			sigs, _, err := sketchJob(engine, reads, opt)
			if err != nil {
				t.Fatal(err)
			}
			store, err := buildStore(reads, sigs, opt)
			if err != nil {
				t.Fatal(err)
			}
			view, err := store.View(minhash.SetOverlap)
			if err != nil {
				t.Fatal(err)
			}
			want := refMatrix(sigs)
			if bits > 0 {
				want = cluster.MustMatrix(len(reads))
				for i := range reads {
					for j := i + 1; j < len(reads); j++ {
						want.Set(i, j, view.Similarity(i, j))
					}
				}
			}
			got, _, err := similarityJob(engine, view, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireSameMatrix(t, name, got, want)
		}
	}
}

// crashTwice is a fault plan whose first map task of every job crashes
// on its first two attempts: a run survives it under the default retry
// budget but must fail under RetryPolicy{MaxAttempts: 2}.
func crashTwice() *faults.Injector {
	return faults.MustNew(faults.Plan{Crashes: []faults.TaskCrash{{Phase: faults.PhaseMap, Task: 0, UpToAttempt: 2}}})
}

// TestRunLevelsHonoursFaultsAndRetry checks that RunLevels hands
// Options.Faults and Options.Retry to its engine: recoverable crashes
// leave every level bit-identical and cost virtual time, and the same
// crashes fail the run once Retry allows no third attempt.
func TestRunLevelsHonoursFaultsAndRetry(t *testing.T) {
	reads, _ := makeReads(3, 6, 200, 0.01, 43)
	opt := Options{K: 8, NumHashes: 40, Cluster: smallCluster(), Seed: 44}
	thetas := []float64{0.3, 0.7}
	base, err := RunLevels(reads, opt, thetas)
	if err != nil {
		t.Fatal(err)
	}

	chaos := opt
	chaos.Retry = mapreduce.RetryPolicy{MaxAttempts: 3}
	chaos.Faults = crashTwice()
	faulted, err := RunLevels(reads, chaos, thetas)
	if err != nil {
		t.Fatal(err)
	}
	if chaos.Faults.Injected() == 0 {
		t.Fatal("RunLevels never consulted the fault plan")
	}
	if !reflect.DeepEqual(base.Levels, faulted.Levels) {
		t.Fatal("fault injection changed the levels")
	}
	if faulted.Virtual <= base.Virtual {
		t.Fatalf("recovery should cost virtual time: %v <= %v", faulted.Virtual, base.Virtual)
	}

	doomed := opt
	doomed.Retry = mapreduce.RetryPolicy{MaxAttempts: 2}
	doomed.Faults = crashTwice()
	if _, err := RunLevels(reads, doomed, thetas); err == nil {
		t.Fatal("RunLevels ignored Retry: a task crashed on both of its 2 allowed attempts")
	}
}

func TestPickRepresentativesHonoursFaultsAndRetry(t *testing.T) {
	reads, _ := makeReads(2, 6, 200, 0.01, 45)
	opt := Options{K: 8, NumHashes: 40, Cluster: smallCluster(), Seed: 46}
	res, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	base, err := PickRepresentatives(reads, res.Assignments, opt)
	if err != nil {
		t.Fatal(err)
	}
	chaos := opt
	chaos.Retry = mapreduce.RetryPolicy{MaxAttempts: 3}
	chaos.Faults = crashTwice()
	got, err := PickRepresentatives(reads, res.Assignments, chaos)
	if err != nil {
		t.Fatal(err)
	}
	if chaos.Faults.Injected() == 0 {
		t.Fatal("PickRepresentatives never consulted the fault plan")
	}
	if !reflect.DeepEqual(base, got) {
		t.Fatalf("fault injection changed the representatives: %v vs %v", got, base)
	}
	doomed := opt
	doomed.Retry = mapreduce.RetryPolicy{MaxAttempts: 2}
	doomed.Faults = crashTwice()
	if _, err := PickRepresentatives(reads, res.Assignments, doomed); err == nil {
		t.Fatal("PickRepresentatives ignored Retry: a task crashed on both of its 2 allowed attempts")
	}
}

func TestRunLevelsRejectsLSHCandidate(t *testing.T) {
	reads, _ := makeReads(2, 4, 200, 0.01, 47)
	_, err := RunLevels(reads, Options{K: 8, NumHashes: 40, Candidate: CandidateLSH, Cluster: smallCluster()}, []float64{0.5})
	if err == nil || !strings.Contains(err.Error(), "Candidate") {
		t.Fatalf("RunLevels with CandidateLSH: err = %v, want one naming Candidate", err)
	}
}
