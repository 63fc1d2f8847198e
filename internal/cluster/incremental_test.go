package cluster

import (
	"testing"

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
	inc, err := NewIncrementalSource(src, opt, nil)
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
	if inc.NumClusters() != batch.NumClusters() || inc.NumReads() != len(sigs) {
		t.Fatalf("counters %d/%d", inc.NumClusters(), inc.NumReads())
	}
}

func TestIncrementalLSHMatchesGreedyLSH(t *testing.T) {
	sigs, _ := sketchGroups(t, 3, 10, 52)
	geo := GeometryFor(len(sigs[0]), 0.5)
	want := refGreedyLSH(sigs, minhash.MatchedPositions, 0.5, geo)
	inc, err := NewIncrementalSource(NewSliceSource(sigs, minhash.MatchedPositions), GreedyOptions{Threshold: 0.5}, &geo)
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
	if _, err := NewIncrementalSource(src, GreedyOptions{Threshold: 2}, nil); err == nil {
		t.Fatal("bad threshold accepted")
	}
	if _, err := NewIncrementalSource(src, GreedyOptions{Threshold: 0.5}, &LSHOptions{Bands: 0, Rows: 1}); err == nil {
		t.Fatal("bad geometry accepted")
	}
	short := NewSliceSource([]minhash.Signature{make(minhash.Signature, 8)}, minhash.SetOverlap)
	if _, err := NewIncrementalSource(short, GreedyOptions{Threshold: 0.5}, &LSHOptions{Bands: 4, Rows: 4}); err == nil {
		t.Fatal("geometry longer than the signatures accepted")
	}
}

func TestIncrementalEmptySignaturesAreSingletons(t *testing.T) {
	empty := minhash.MustSketcher(10, 5, 1).Sketch(nil)
	src := NewSliceSource([]minhash.Signature{empty, empty.Clone()}, minhash.SetOverlap)
	inc, err := NewIncrementalSource(src, GreedyOptions{Threshold: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := inc.Add(0)
	l2, _ := inc.Add(1)
	if l1 == l2 {
		t.Fatal("empty signatures merged")
	}
}
