package cluster

import (
	"math/rand"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// sourceTestSigs builds n deterministic signatures in g groups: members
// of a group share most slots (high Jaccard), across groups they are
// random — plus every emptyEvery-th signature empty.
func sourceTestSigs(n, numHashes, groups, emptyEvery int, seed int64) []minhash.Signature {
	rng := rand.New(rand.NewSource(seed))
	bases := make([]minhash.Signature, groups)
	for g := range bases {
		bases[g] = make(minhash.Signature, numHashes)
		for j := range bases[g] {
			bases[g][j] = rng.Uint64() % (1 << 61)
		}
	}
	sigs := make([]minhash.Signature, n)
	for i := range sigs {
		sig := make(minhash.Signature, numHashes)
		if emptyEvery > 0 && i%emptyEvery == emptyEvery-1 {
			for j := range sig {
				sig[j] = minhash.EmptyMin
			}
		} else {
			copy(sig, bases[i%groups])
			// perturb a few slots so within-group similarity is high but
			// not exactly 1
			for k := 0; k < 1+i%3; k++ {
				sig[rng.Intn(numHashes)] = rng.Uint64() % (1 << 61)
			}
		}
		sigs[i] = sig
	}
	return sigs
}

func clusteringsEqual(t *testing.T, name string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d labels vs %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: label[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
}

// TestGreedySourceEquivalence pins GreedySource over a SliceSource to be
// identical to the brute-force refGreedy, at thresholds including 0 and 1.
func TestGreedySourceEquivalence(t *testing.T) {
	sigs := sourceTestSigs(150, 40, 6, 11, 1)
	sigs[0], sigs[10] = sigs[10], sigs[0] // an empty signature comes first
	for _, est := range []minhash.Estimator{minhash.SetOverlap, minhash.MatchedPositions} {
		for _, theta := range []float64{0, 0.6, 1} {
			got, err := GreedySource(NewSliceSource(sigs, est), GreedyOptions{Threshold: theta})
			if err != nil {
				t.Fatal(err)
			}
			clusteringsEqual(t, "GreedySource", got, refGreedy(sigs, est, theta))
		}
	}
	if _, err := GreedySource(NewSliceSource(nil, minhash.SetOverlap), GreedyOptions{Threshold: 2}); err == nil {
		t.Fatal("bad threshold: expected error")
	}
}

// TestGreedyLSHSourceEquivalence pins GreedyLSHSource — BandIndex's
// candidate order included — identical to the map-dedup refGreedyLSH.
func TestGreedyLSHSourceEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, sigs := range [][]minhash.Signature{sourceTestSigs(200, 40, 8, 13, seed), bandTestSigs(200, 40, seed)} {
			for _, lsh := range []LSHOptions{{Bands: 8, Rows: 5}, {Bands: 20, Rows: 1}} {
				got, err := GreedyLSHSource(NewSliceSource(sigs, minhash.SetOverlap), GreedyOptions{Threshold: 0.6}, lsh)
				if err != nil {
					t.Fatal(err)
				}
				clusteringsEqual(t, "GreedyLSHSource", got, refGreedyLSH(sigs, minhash.SetOverlap, 0.6, lsh))
			}
		}
	}
}

func TestGreedyLSHSourceValidation(t *testing.T) {
	src := NewSliceSource(sourceTestSigs(10, 20, 2, 0, 4), minhash.SetOverlap)
	if _, err := GreedyLSHSource(src, GreedyOptions{Threshold: 0.5}, LSHOptions{Bands: 7, Rows: 5}); err == nil {
		t.Fatal("oversized geometry: expected error")
	}
	if _, err := GreedyLSHSource(src, GreedyOptions{Threshold: -1}, LSHOptions{Bands: 4, Rows: 5}); err == nil {
		t.Fatal("bad threshold: expected error")
	}
	empty := NewSliceSource(nil, minhash.SetOverlap)
	if _, err := GreedyLSHSource(empty, GreedyOptions{Threshold: 0.5}, LSHOptions{Bands: 0, Rows: 5}); err == nil {
		t.Fatal("zero bands: expected error even on empty input")
	}
	got, err := GreedyLSHSource(empty, GreedyOptions{Threshold: 0.5}, LSHOptions{Bands: 4, Rows: 5})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty source: got %v, %v", got, err)
	}
}

// TestHierarchicalFromSourceEquivalence pins HierarchicalFromSource
// identical to the dendrogram of refSimilarityMatrix for every linkage.
func TestHierarchicalFromSourceEquivalence(t *testing.T) {
	sigs := sourceTestSigs(90, 30, 5, 10, 2)
	for _, link := range []Linkage{Single, Average, Complete} {
		d, err := Hierarchical(refSimilarityMatrix(sigs, minhash.SetOverlap), HierarchicalOptions{Linkage: link})
		if err != nil {
			t.Fatal(err)
		}
		want := d.CutAt(0.6)
		got, err := HierarchicalFromSource(NewSliceSource(sigs, minhash.SetOverlap), link, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		clusteringsEqual(t, link.String(), got, want)
	}
	if _, err := HierarchicalFromSource(NewSliceSource(sigs, minhash.SetOverlap), Single, 1.5); err == nil {
		t.Fatal("bad threshold: expected error")
	}
}

// TestIncrementalSourceEquivalence pins IncrementalSource, fed the reads
// in order, identical to refGreedy without banding and to refGreedyLSH
// with it.
func TestIncrementalSourceEquivalence(t *testing.T) {
	sigs := sourceTestSigs(120, 40, 6, 9, 3)
	sigs = append(sigs, sigs[:5]...) // exact copies reach θ = 1
	banded := &LSHOptions{Bands: 8, Rows: 5}
	for _, tc := range []struct {
		theta float64
		geo   *LSHOptions
	}{{0.6, nil}, {1, nil}, {0, banded}, {0.6, banded}, {1, banded}} {
		opt, geo := GreedyOptions{Threshold: tc.theta}, tc.geo
		want := refGreedy(sigs, minhash.SetOverlap, opt.Threshold)
		if geo != nil {
			want = refGreedyLSH(sigs, minhash.SetOverlap, opt.Threshold, *geo)
		}
		src, err := NewIncrementalSource(NewSliceSource(sigs, minhash.SetOverlap), opt, geo)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sigs {
			got, err := src.Add(i)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i] {
				t.Fatalf("geo=%v read %d: label %d, want %d", geo, i, got, want[i])
			}
		}
		if src.NumClusters() != want.NumClusters() || src.NumReads() != len(sigs) {
			t.Fatalf("geo=%v: counts %d/%d vs %d/%d", geo,
				src.NumClusters(), src.NumReads(), want.NumClusters(), len(sigs))
		}
	}
	src, _ := NewIncrementalSource(NewSliceSource(sigs, minhash.SetOverlap), GreedyOptions{Threshold: 0.6}, nil)
	if _, err := src.Add(len(sigs)); err == nil {
		t.Fatal("out-of-range index: expected error")
	}
}

// TestSubsetSourceProjects checks SubsetSource's index remapping against
// direct slicing.
func TestSubsetSourceProjects(t *testing.T) {
	sigs := sourceTestSigs(60, 30, 4, 7, 5)
	src := NewSliceSource(sigs, minhash.SetOverlap)
	ids := []int{3, 17, 41, 8, 59, 20}
	sub := Subset(src, ids)
	if sub.Len() != len(ids) || sub.NumHashes() != src.NumHashes() {
		t.Fatalf("subset geometry %d/%d", sub.Len(), sub.NumHashes())
	}
	picked := make([]minhash.Signature, len(ids))
	for i, id := range ids {
		picked[i] = sigs[id]
	}
	direct := NewSliceSource(picked, minhash.SetOverlap)
	for i := range ids {
		if sub.Empty(i) != direct.Empty(i) {
			t.Fatalf("Empty(%d) mismatch", i)
		}
		if sub.BandHash(i, 1, 5) != direct.BandHash(i, 1, 5) {
			t.Fatalf("BandHash(%d) mismatch", i)
		}
		for j := i + 1; j < len(ids); j++ {
			if sub.Similarity(i, j) != direct.Similarity(i, j) {
				t.Fatalf("Similarity(%d,%d) mismatch", i, j)
			}
		}
	}
	// Clustering a subset equals clustering the copied-out slice.
	got, err := GreedySource(sub, GreedyOptions{Threshold: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	clusteringsEqual(t, "subset greedy", got, refGreedy(picked, minhash.SetOverlap, 0.6))
}
