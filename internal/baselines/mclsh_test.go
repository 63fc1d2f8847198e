package baselines

import (
	"fmt"
	"slices"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// mclshReference is MC-LSH as a loop over its own band index: per-band
// buckets of representative ids in insertion order, and candidates
// deduplicated in order of first encounter across bands. A read joins
// the first candidate representative within the threshold (matched
// positions estimator), otherwise it becomes a representative.
func mclshReference(reads []fasta.Record, opt Options) metrics.Clustering {
	sk := minhash.MustSketcher(mclshBands*mclshRows, 10, opt.Seed)
	e := kmer.MustExtractor(10)
	buckets := make([]map[uint64][]int, mclshBands)
	for b := range buckets {
		buckets[b] = map[uint64][]int{}
	}
	var reps []minhash.Signature // representative id (= label) -> signature
	assign := make(metrics.Clustering, len(reads))
	for i := range reads {
		sig := sk.Sketch(e.Set(reads[i].Seq))
		assign[i] = -1
		seen := map[int]bool{}
		for b := 0; b < mclshBands && assign[i] < 0 && !sig.Empty(); b++ {
			for _, id := range buckets[b][minhash.BandHash(sig, b, mclshRows)] {
				if !seen[id] && assign[i] < 0 {
					seen[id] = true
					if minhash.MatchedPositions.Similarity(sig, reps[id]) >= opt.Threshold {
						assign[i] = id
					}
				}
			}
		}
		if assign[i] < 0 {
			assign[i] = len(reps)
			for b := range buckets {
				h := minhash.BandHash(sig, b, mclshRows)
				buckets[b][h] = append(buckets[b][h], len(reps))
			}
			reps = append(reps, sig)
		}
	}
	return assign
}

// TestMCLSHMatchesBandIndexReference pins MCLSH's labels to
// mclshReference across samples, thresholds and seeds, with reads shorter
// than the word size (empty signatures) mixed in.
func TestMCLSHMatchesBandIndexReference(t *testing.T) {
	wgs, _ := testSample(t, 3, 20, 300, 5)
	amp, _ := amplicon16S(t, 6, 10, 0.02, 6)
	short := append(slices.Clone(amp[:10]), fasta.Record{ID: "tiny", Seq: []byte("ACGT")}, fasta.Record{ID: "tiny2", Seq: []byte("ACG")})
	short = append(short, amp[10:]...)
	for name, reads := range map[string][]fasta.Record{"wgs": wgs, "16S": amp, "short": short} {
		for _, theta := range []float64{0, 0.3, 0.5, 0.8, 1} {
			for _, seed := range []int64{1, 7} {
				t.Run(fmt.Sprintf("%s/theta=%v/seed=%d", name, theta, seed), func(t *testing.T) {
					opt := Options{Threshold: theta, Seed: seed}
					got, err := MCLSH{}.Cluster(reads, opt)
					if err != nil {
						t.Fatal(err)
					}
					if want := mclshReference(reads, opt); !slices.Equal(got, want) {
						t.Fatalf("labels %v, want %v", got, want)
					}
				})
			}
		}
	}
}
