package cluster

import (
	"testing"

	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

func TestIncrementalMatchesBatchGreedyExactly(t *testing.T) {
	sigs, _ := sketchGroups(t, 4, 12, 51)
	src := NewSliceSource(sigs, minhash.MatchedPositions)
	opt := GreedyOptions{Threshold: 0.5}
	batch, err := GreedySource(src, opt)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncrementalSource(src, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sigs {
		label, err := inc.Add(i)
		if err != nil {
			t.Fatal(err)
		}
		if label != batch[i] {
			t.Fatalf("read %d: incremental label %d != batch %d", i, label, batch[i])
		}
	}
}

func TestIncrementalLSHMatchesGreedyLSH(t *testing.T) {
	sigs, _ := sketchGroups(t, 3, 10, 52)
	geo := GeometryFor(len(sigs[0]), 0.5)
	want := refGreedyLSH(sigs, fullKernel(minhash.MatchedPositions), 0.5, geo)
	inc, err := NewIncrementalSource(NewSliceSource(sigs, minhash.MatchedPositions), GreedyOptions{Threshold: 0.5, LSH: &geo})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sigs {
		label, err := inc.Add(i)
		if err != nil {
			t.Fatal(err)
		}
		if label != want[i] {
			t.Fatalf("read %d: incremental-LSH label %d != reference %d", i, label, want[i])
		}
	}
}

func TestIncrementalValidation(t *testing.T) {
	src := NewSliceSource(make([]minhash.Signature, 1), minhash.SetOverlap)
	if _, err := NewIncrementalSource(src, GreedyOptions{Threshold: 2}); err == nil {
		t.Fatal("bad threshold accepted")
	}
	if _, err := NewIncrementalSource(src, GreedyOptions{Threshold: 0.5, LSH: &LSHOptions{Bands: 0, Rows: 1}}); err == nil {
		t.Fatal("bad geometry accepted")
	}
	short := NewSliceSource([]minhash.Signature{make(minhash.Signature, 8)}, minhash.SetOverlap)
	if _, err := NewIncrementalSource(short, GreedyOptions{Threshold: 0.5, LSH: &LSHOptions{Bands: 4, Rows: 4}}); err == nil {
		t.Fatal("geometry longer than the signatures accepted")
	}
	inc, err := NewIncrementalSource(src, GreedyOptions{Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Add(1); err == nil {
		t.Fatal("out-of-range index: expected error")
	}
}

// TestIncrementalEmptySignaturesAreSingletons pins the empty-read rule
// at θ = 0, where every pair of non-empty reads matches: an empty read
// is never compared, never joins a cluster and is never joined, in
// whatever position it arrives.
func TestIncrementalEmptySignaturesAreSingletons(t *testing.T) {
	sk := minhash.MustSketcher(10, 5, 1)
	empty := sk.Sketch(nil)
	a := sk.Sketch(kmer.FromSlice([]uint64{1, 2, 3}))
	b := sk.Sketch(kmer.FromSlice([]uint64{400, 500, 600}))
	for _, tc := range []struct {
		sigs []minhash.Signature
		want metrics.Clustering
	}{
		{[]minhash.Signature{empty, empty.Clone()}, metrics.Clustering{0, 1}},
		{[]minhash.Signature{a, empty, b}, metrics.Clustering{0, 1, 0}},
		{[]minhash.Signature{empty, a, b}, metrics.Clustering{0, 1, 1}},
	} {
		for _, est := range []minhash.Estimator{minhash.SetOverlap, minhash.MatchedPositions} {
			got, err := GreedySource(NewSliceSource(tc.sigs, est), GreedyOptions{Threshold: 0})
			if err != nil {
				t.Fatal(err)
			}
			clusteringsEqual(t, est.String(), got, tc.want)
			clusteringsEqual(t, "refGreedy", refGreedy(tc.sigs, fullKernel(est), 0), tc.want)
		}
	}
}
