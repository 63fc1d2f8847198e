package minhash

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/kmer"
)

// pairwiseRow is the per-pair reference for Postings.Row: read i against
// every later read through the sorted-list merge kernel.
func pairwiseRow(prep []Prepared, i int, dst []float64) {
	for k := range dst {
		dst[k] = SetOverlap.SimilarityPrepared(prep[i], prep[i+1+k])
	}
}

// checkRows compares every row of the postings index against the
// per-pair kernel with == on float64 and checks that Row hands its
// counters back zeroed.
func checkRows(t *testing.T, name string, prep []Prepared) {
	t.Helper()
	idx, err := NewPostings(prep)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != len(prep) {
		t.Fatalf("%s: index of %d reads for %d", name, idx.Len(), len(prep))
	}
	counts := make([]int32, len(prep))
	for i := range prep {
		got := make([]float64, len(prep)-i-1)
		want := make([]float64, len(got))
		idx.Row(i, got, counts)
		pairwiseRow(prep, i, want)
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("%s: row %d col %d: postings %v != pairwise %v", name, i, i+1+k, got[k], want[k])
			}
		}
		for j, c := range counts {
			if c != 0 {
				t.Fatalf("%s: row %d left counts[%d] = %d", name, i, j, c)
			}
		}
	}
}

// sketchReads draws nReads reads from a few random genomes (with
// substitution errors, some shorter than k, some exact copies of the
// previous read) and returns their prepared signatures.
func sketchReads(rng *rand.Rand, nReads, k, n int) []Prepared {
	const bases = "ACGT"
	genomes := make([][]byte, 3)
	for g := range genomes {
		genomes[g] = make([]byte, 2000)
		for p := range genomes[g] {
			genomes[g][p] = bases[rng.Intn(4)]
		}
	}
	sk := MustSketcher(n, k, 5)
	ex := kmer.MustExtractor(k)
	prep := make([]Prepared, nReads)
	for r := range prep {
		var read []byte
		switch {
		case r%7 == 3:
			read = genomes[0][:rng.Intn(k)] // shorter than k: empty signature
		case r%5 == 4:
			prep[r] = prep[r-1] // identical read
			continue
		default:
			g := genomes[rng.Intn(len(genomes))]
			start := rng.Intn(len(g) - 300)
			read = append([]byte(nil), g[start:start+50+rng.Intn(250)]...)
			for p := range read {
				if rng.Intn(100) == 0 {
					read[p] = bases[rng.Intn(4)]
				}
			}
		}
		prep[r] = Prepare(sk.SketchSlice(ex.Slice(read)))
	}
	return prep
}

// TestPostingsRowMatchesPairwise is the property test behind the
// postings row kernel: every row value must be bit-identical to
// SetOverlap.SimilarityPrepared on the same pair.
func TestPostingsRowMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{3, 5, 12} {
		// k=3 makes M = 64 < n, so slot values repeat within a signature.
		prep := sketchReads(rng, 60, k, 100)
		if k == 3 && len(prep[0].Vals) == len(prep[0].Sig) {
			t.Fatal("k=3 corpus has no repeated slot values")
		}
		checkRows(t, fmt.Sprintf("sketched k=%d", k), prep)
	}
	for trial := 0; trial < 200; trial++ {
		// Hand-drawn signatures over a 50-value range: shared values sit
		// in different slots, some signatures are empty or zero-length,
		// and EmptyMin can appear after a real first slot.
		prep := make([]Prepared, rng.Intn(12))
		for r := range prep {
			sig := randomSignature(rng, rng.Intn(20))
			switch rng.Intn(6) {
			case 0:
				for s := range sig {
					sig[s] = EmptyMin
				}
			case 1:
				if len(sig) > 1 {
					sig[len(sig)-1] = EmptyMin
				}
			}
			prep[r] = Prepare(sig)
		}
		checkRows(t, fmt.Sprintf("random trial %d", trial), prep)
	}
}

func TestPostingsRowSmallCorpora(t *testing.T) {
	a := Prepare(Signature{5, 9, 9, 2})
	b := Prepare(Signature{9, 2, 7, 5}) // same values as a, other slots
	empty := Prepare(Signature{EmptyMin, EmptyMin, EmptyMin, EmptyMin})
	for _, prep := range [][]Prepared{nil, {a}, {a, b}, {a, empty}, {empty, empty}, {a, a}} {
		checkRows(t, fmt.Sprintf("N=%d", len(prep)), prep)
	}
	idx, err := NewPostings([]Prepared{a, b})
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, 1)
	idx.Row(0, row, make([]int32, 2))
	if want := 3.0 / 4.0; row[0] != want {
		t.Fatalf("a·b = %v, want %v", row[0], want)
	}
}

// benchCorpus sketches the benchmark corpus once per k: 2,000 reads of
// 1,000 bp with 1% substitutions from 20 random 50 kb genomes, n = 100.
var benchCorpus = map[int][]Prepared{}

func benchPrepared(k int) []Prepared {
	if prep, ok := benchCorpus[k]; ok {
		return prep
	}
	const bases = "ACGT"
	rng := rand.New(rand.NewSource(17))
	genomes := make([][]byte, 20)
	for g := range genomes {
		genomes[g] = make([]byte, 50_000)
		for p := range genomes[g] {
			genomes[g][p] = bases[rng.Intn(4)]
		}
	}
	sk := MustSketcher(100, k, 1)
	ex := kmer.MustExtractor(k)
	prep := make([]Prepared, 2000)
	read := make([]byte, 1000)
	for r := range prep {
		g := genomes[rng.Intn(len(genomes))]
		copy(read, g[rng.Intn(len(g)-len(read)):])
		for p := range read {
			if rng.Intn(100) == 0 {
				read[p] = bases[rng.Intn(4)]
			}
		}
		prep[r] = Prepare(sk.SketchSlice(ex.Slice(read)))
	}
	benchCorpus[k] = prep
	return prep
}

// BenchmarkSimilarityRows times one whole upper triangle (every row of
// a 2,000-read corpus): the postings index (built inside the loop, as
// the pipeline builds it once per matrix) against the per-pair merge.
func BenchmarkSimilarityRows(b *testing.B) {
	for _, k := range []int{5, 20} {
		b.Run(fmt.Sprintf("k=%d/postings", k), func(b *testing.B) {
			prep := benchPrepared(k)
			dst := make([]float64, len(prep))
			counts := make([]int32, len(prep))
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				idx, err := NewPostings(prep)
				if err != nil {
					b.Fatal(err)
				}
				for i := range prep {
					idx.Row(i, dst[:len(prep)-i-1], counts)
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/pairwise", k), func(b *testing.B) {
			prep := benchPrepared(k)
			dst := make([]float64, len(prep))
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				for i := range prep {
					pairwiseRow(prep, i, dst[:len(prep)-i-1])
				}
			}
		})
	}
}
