package cluster

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

func TestGeometryFor(t *testing.T) {
	g := GeometryFor(100, 0.5)
	if g.Bands*g.Rows > 100 {
		t.Fatalf("geometry %+v exceeds signature length", g)
	}
	knee := kneeOf(g.Bands, g.Rows)
	if knee < 0.35 || knee > 0.75 {
		t.Fatalf("knee %.2f for θ=0.5 (%+v)", knee, g)
	}
	// Higher θ wants more rows per band.
	tight := GeometryFor(100, 0.9)
	if tight.Rows < g.Rows {
		t.Fatalf("θ=0.9 geometry %+v not stricter than θ=0.5 %+v", tight, g)
	}
	// Degenerate inputs.
	if got := GeometryFor(1, 0.5); got.Bands != 1 || got.Rows != 1 {
		t.Fatalf("n=1 geometry %+v", got)
	}
}

func TestLSHOptionsValidate(t *testing.T) {
	if err := (LSHOptions{Bands: 0, Rows: 1}).Validate(10); err == nil {
		t.Error("bands=0 accepted")
	}
	if err := (LSHOptions{Bands: 4, Rows: 4}).Validate(10); err == nil {
		t.Error("oversized geometry accepted")
	}
	if err := (LSHOptions{Bands: 2, Rows: 5}).Validate(10); err != nil {
		t.Error(err)
	}
}

func TestGreedyLSHMatchesGreedyOnSeparatedGroups(t *testing.T) {
	sigs, truth := sketchGroups(t, 5, 10, 41)
	src := NewSliceSource(sigs, minhash.MatchedPositions)
	opt := GreedyOptions{Threshold: 0.5}
	exact, err := GreedySource(src, opt)
	if err != nil {
		t.Fatal(err)
	}
	geo := GeometryFor(len(sigs[0]), 0.5)
	lsh, err := GreedySource(src, GreedyOptions{Threshold: 0.5, LSH: &geo})
	if err != nil {
		t.Fatal(err)
	}
	if exact.NumClusters() != lsh.NumClusters() {
		t.Fatalf("exact %d clusters vs LSH %d", exact.NumClusters(), lsh.NumClusters())
	}
	// Both must agree with ground truth exactly on this easy input.
	agreesWithTruth(t, lsh, truth, 5)
}

func TestGreedyLSHEmptyInputAndValidation(t *testing.T) {
	empty := NewSliceSource(nil, minhash.SetOverlap)
	c, err := GreedySource(empty, GreedyOptions{Threshold: 0.5, LSH: &LSHOptions{Bands: 2, Rows: 2}})
	if err != nil || len(c) != 0 {
		t.Fatalf("c=%v err=%v", c, err)
	}
	if _, err := GreedySource(empty, GreedyOptions{Threshold: 2, LSH: &LSHOptions{Bands: 2, Rows: 2}}); err == nil {
		t.Fatal("bad threshold accepted")
	}
	if _, err := GreedySource(empty, GreedyOptions{Threshold: 0.5, LSH: &LSHOptions{Bands: 0, Rows: 5}}); err == nil {
		t.Fatal("zero bands accepted on empty input")
	}
	sigs, _ := sketchGroups(t, 1, 3, 42)
	if _, err := GreedySource(NewSliceSource(sigs, minhash.SetOverlap), GreedyOptions{Threshold: 0.5, LSH: &LSHOptions{Bands: 100, Rows: 100}}); err == nil {
		t.Fatal("oversized geometry accepted")
	}
}

func TestGreedyLSHScalesBetterThanExact(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	// Many tiny clusters: exact greedy scans all representatives per
	// read (O(N·C)), LSH only bucket collisions.
	rng := rand.New(rand.NewSource(43))
	sk := minhash.MustSketcher(100, 10, 43)
	n := 1500
	sigs := make([]minhash.Signature, n)
	for i := range sigs {
		set := kmer.Set{}
		for len(set) < 80 {
			set.Add(rng.Uint64() % kmer.FeatureSpace(10))
		}
		sigs[i] = sk.Sketch(set)
	}
	src := NewSliceSource(sigs, minhash.MatchedPositions)
	opt := GreedyOptions{Threshold: 0.6}
	start := time.Now()
	if _, err := GreedySource(src, opt); err != nil {
		t.Fatal(err)
	}
	exactTime := time.Since(start)
	start = time.Now()
	geo := GeometryFor(100, 0.6)
	if _, err := GreedySource(src, GreedyOptions{Threshold: 0.6, LSH: &geo}); err != nil {
		t.Fatal(err)
	}
	lshTime := time.Since(start)
	if lshTime > exactTime {
		t.Fatalf("LSH path (%v) slower than exact (%v) on dust-heavy input", lshTime, exactTime)
	}
}

func TestBandIndexValidation(t *testing.T) {
	src := NewSliceSource(sourceTestSigs(4, 20, 2, 0, 1), minhash.SetOverlap)
	if _, err := NewBandIndex(src, LSHOptions{Bands: 0, Rows: 5}); err == nil {
		t.Error("bands=0 should fail")
	}
	if _, err := NewBandIndex(src, LSHOptions{Bands: 5, Rows: 0}); err == nil {
		t.Error("rows=0 should fail")
	}
	if _, err := NewBandIndex(src, LSHOptions{Bands: 5, Rows: 5}); err == nil {
		t.Error("geometry longer than the signatures should fail")
	}
}

func TestBandIndexFindsSimilar(t *testing.T) {
	s := minhash.MustSketcher(40, 8, 21)
	rng := rand.New(rand.NewSource(22))
	base := kmer.Set{}
	for i := 0; i < 300; i++ {
		base.Add(rng.Uint64() % kmer.FeatureSpace(8))
	}
	// near: shares ~90% of elements with base
	near := kmer.Set{}
	i := 0
	for v := range base {
		if i%10 != 0 {
			near.Add(v)
		}
		i++
	}
	for len(near) < len(base) {
		near.Add(rng.Uint64() % kmer.FeatureSpace(8))
	}
	// far: disjoint random set
	far := kmer.Set{}
	for len(far) < 300 {
		far.Add(rng.Uint64() % kmer.FeatureSpace(8))
	}
	src := NewSliceSource([]minhash.Signature{s.Sketch(base), s.Sketch(near), s.Sketch(far)}, minhash.SetOverlap)
	ix, err := NewBandIndex(src, LSHOptions{Bands: 10, Rows: 4})
	if err != nil {
		t.Fatal(err)
	}
	ix.Add(0)
	if got := ix.CandidatesInto(1, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("band index candidates for a highly similar signature: %v, want [0]", got)
	}
	if got := ix.CandidatesInto(2, nil); len(got) != 0 {
		t.Fatalf("band index matched a disjoint signature: %v", got)
	}
}

// bandTestSigs draws slot values from four per-signature choices within
// one of 32 families, so two signatures collide in a band only by chance
// and each band changes the candidate sets.
func bandTestSigs(n, sigLen int, seed int64) []minhash.Signature {
	rng := rand.New(rand.NewSource(seed))
	sigs := make([]minhash.Signature, n)
	for i := range sigs {
		base := rng.Uint64() % 32
		sigs[i] = make(minhash.Signature, sigLen)
		for j := range sigs[i] {
			sigs[i][j] = base*1000 + uint64(rng.Intn(4))
		}
	}
	return sigs
}

// TestCandidatesIntoMatchesCandidates pins BandIndex's generation-stamped
// dedup to a fresh set per query: same candidates, same order.
func TestCandidatesIntoMatchesCandidates(t *testing.T) {
	sigs := bandTestSigs(200, 64, 11)
	src := NewSliceSource(sigs, minhash.SetOverlap)
	geo := LSHOptions{Bands: 16, Rows: 4}
	ix, err := NewBandIndex(src, geo)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sigs {
		ix.Add(i)
	}
	var buf []int
	for i, sig := range sigs {
		seen := map[int]bool{}
		var want []int
		for b := 0; b < geo.Bands; b++ {
			h := minhash.BandHash(sig, b, geo.Rows)
			for id := range sigs {
				if !seen[id] && minhash.BandHash(sigs[id], b, geo.Rows) == h {
					seen[id] = true
					want = append(want, id)
				}
			}
		}
		buf = ix.CandidatesInto(i, buf[:0])
		if !slices.Equal(buf, want) {
			t.Fatalf("sig %d: candidates %v, want %v", i, buf, want)
		}
	}
}

// TestCandidatesIntoGenerationWrap checks that a wrapped generation
// counter forgets marks left by the queries before the wrap.
func TestCandidatesIntoGenerationWrap(t *testing.T) {
	src := NewSliceSource([]minhash.Signature{{1, 2, 3, 4, 5, 6, 7, 8}}, minhash.SetOverlap)
	ix, err := NewBandIndex(src, LSHOptions{Bands: 4, Rows: 2})
	if err != nil {
		t.Fatal(err)
	}
	ix.Add(0)
	for i := 0; i < 4; i++ {
		if i == 1 {
			ix.gen = ^uint32(0) // the next query wraps; id 0 holds mark 1
		}
		if got := ix.CandidatesInto(0, nil); len(got) != 1 || got[0] != 0 {
			t.Fatalf("query %d: got %v, want [0]", i, got)
		}
	}
}
