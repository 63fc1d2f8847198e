package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
	"github.com/metagenomics/mrmcminh/internal/sigstore"
	"github.com/metagenomics/mrmcminh/internal/simulate"
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

// greedyCorpora sketches the Algorithm 1 oracle corpora: many-cluster
// whole-metagenome reads (k=20, n=100, as the wgs-hier benchmark), few-
// cluster 16S amplicons (k=15, n=50), the wgs reads with every third one
// emptied, and the 16S reads with their first 64 submitted again.
func greedyCorpora(t *testing.T) map[string][]minhash.Signature {
	t.Helper()
	sketch := func(reads []fasta.Record, k, n int) []minhash.Signature {
		sk := minhash.MustSketcher(n, k, 1)
		ex := &kmer.Extractor{K: k, Canonical: true}
		sigs := make([]minhash.Signature, len(reads))
		for i, r := range reads {
			sigs[i] = sk.Sketch(ex.Set(r.Seq))
		}
		return sigs
	}
	spec, err := simulate.TableIISpec("S9")
	if err != nil {
		t.Fatal(err)
	}
	wgsReads, _, err := simulate.BuildWholeMetagenome(spec, 0.004, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	ampReads, _, err := simulate.BuildHuse16S(0.03, 0.0006, 3)
	if err != nil {
		t.Fatal(err)
	}
	wgs, amp := sketch(wgsReads, 20, 100), sketch(ampReads, 15, 50)
	empties := slices.Clone(wgs)
	for i := 1; i < len(empties); i += 3 {
		empties[i] = minhash.MustSketcher(100, 20, 1).Sketch(nil)
	}
	return map[string][]minhash.Signature{
		"wgs": wgs, "16S": amp, "empty reads": empties, "duplicate reads": append(slices.Clone(amp), amp[:64]...),
	}
}

// TestGreedyOracle pins Algorithm 1's one implementation — GreedySource,
// the IncrementalSource fed 0..N-1 — to refGreedy on the exact search and
// to refGreedyLSH on the banded one, over every kind of source: slices, a
// subset of a reordered parent, and full and 4-bit store views.
func TestGreedyOracle(t *testing.T) {
	for name, sigs := range greedyCorpora(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			reversed := slices.Clone(sigs)
			slices.Reverse(reversed)
			ids := make([]int, len(sigs))
			for i := range ids {
				ids[i] = len(sigs) - 1 - i
			}
			view := func(bits int) SigSource {
				st, err := sigstore.New(sigstore.Config{NumHashes: len(sigs[0]), Bits: bits})
				if err != nil {
					t.Fatal(err)
				}
				if err := st.PutBatch(0, sigs); err != nil {
					t.Fatal(err)
				}
				v, err := st.View(minhash.SetOverlap)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			sources := []struct {
				name   string
				src    SigSource
				packed bool // read through packedKernel(4) rather than the full kernel
			}{
				{"slice", NewSliceSource(sigs, minhash.SetOverlap), false},
				{"subset", Subset(NewSliceSource(reversed, minhash.SetOverlap), ids), false},
				{"full view", view(0), false},
				{"4-bit view", view(4), true},
			}
			kernels := map[bool]refKernel{false: fullKernel(minhash.SetOverlap), true: packedKernel(4)}
			for _, theta := range []float64{0, 0.246, 0.55, 0.9, 1} {
				geo := GeometryFor(len(sigs[0]), theta)
				for _, banded := range []bool{false, true} {
					opt := GreedyOptions{Threshold: theta}
					want := map[bool]metrics.Clustering{}
					for packed, k := range kernels {
						want[packed] = refGreedy(sigs, k, theta)
						if banded {
							opt.LSH = &geo
							want[packed] = refGreedyLSH(sigs, k, theta, geo)
						}
					}
					for _, s := range sources {
						got, err := GreedySource(s.src, opt)
						if err != nil {
							t.Fatal(err)
						}
						clusteringsEqual(t, fmt.Sprintf("%s, θ=%v, banded=%v", s.name, theta, banded), got, want[s.packed])
					}
				}
			}
		})
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
		if !slices.Equal(sub.Values(i), direct.Values(i)) {
			t.Fatalf("Values(%d) mismatch", i)
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
	clusteringsEqual(t, "subset greedy", got, refGreedy(picked, fullKernel(minhash.SetOverlap), 0.6))
}
