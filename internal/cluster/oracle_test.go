package cluster

import (
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// The brute-force references below work on plain signature slices with
// the un-prepared estimator (or, for packed sources, packedKernel).
// The production algorithms, which read signatures through a SigSource,
// are pinned to them.

// refKernel is a reference pairwise similarity and band hash.
type refKernel struct {
	sim  func(a, b minhash.Signature) float64
	band func(sig minhash.Signature, band, rows int) uint64
}

// fullKernel reads full-width signatures with est.
func fullKernel(est minhash.Estimator) refKernel {
	return refKernel{sim: est.Similarity, band: minhash.BandHash}
}

// packedKernel reads the b-bit sketches of a packed store, compacting
// the signatures afresh on every call.
func packedKernel(bits int) refKernel {
	compact := func(sig minhash.Signature) minhash.BBitSignature {
		p, err := minhash.Compact(sig, bits)
		if err != nil {
			panic(err)
		}
		return p
	}
	return refKernel{
		sim: func(a, b minhash.Signature) float64 {
			s, err := compact(a).Similarity(compact(b))
			if err != nil {
				panic(err)
			}
			return s
		},
		band: func(sig minhash.Signature, band, rows int) uint64 { return compact(sig).BandHash(band, rows) },
	}
}

// refGreedy is Algorithm 1 as written in the paper. An empty signature
// is never compared: it neither sweeps later reads nor is swept.
func refGreedy(sigs []minhash.Signature, k refKernel, theta float64) metrics.Clustering {
	assign := make(metrics.Clustering, len(sigs))
	for i := range assign {
		assign[i] = -1
	}
	next := 0
	for i := range sigs {
		if assign[i] >= 0 {
			continue
		}
		assign[i] = next
		for j := i + 1; j < len(sigs); j++ {
			if assign[j] < 0 && !sigs[i].Empty() && !sigs[j].Empty() && k.sim(sigs[i], sigs[j]) >= theta {
				assign[j] = next
			}
		}
		next++
	}
	return assign
}

// refGreedyLSH is Algorithm 1 over banded candidates, deduplicated with a
// fresh map per read: a read joins the first representative, in order of
// first encounter across bands, that reaches theta; otherwise it becomes
// a representative and, unless empty, is filed under every band hash.
func refGreedyLSH(sigs []minhash.Signature, k refKernel, theta float64, geo LSHOptions) metrics.Clustering {
	buckets := make([]map[uint64][]int, geo.Bands) // band hash -> labels
	for b := range buckets {
		buckets[b] = map[uint64][]int{}
	}
	var reps []int // label -> read index
	assign := make(metrics.Clustering, len(sigs))
	for i, sig := range sigs {
		assign[i] = -1
		seen := map[int]bool{}
		for b := 0; b < geo.Bands && assign[i] < 0 && !sig.Empty(); b++ {
			for _, label := range buckets[b][k.band(sig, b, geo.Rows)] {
				if !seen[label] && assign[i] < 0 {
					seen[label] = true
					if k.sim(sig, sigs[reps[label]]) >= theta {
						assign[i] = label
					}
				}
			}
		}
		if assign[i] < 0 {
			assign[i] = len(reps)
			for b := 0; b < geo.Bands && !sig.Empty(); b++ {
				h := k.band(sig, b, geo.Rows)
				buckets[b][h] = append(buckets[b][h], len(reps))
			}
			reps = append(reps, i)
		}
	}
	return assign
}

// refSimilarityMatrix is the sequential all-pairs matrix.
func refSimilarityMatrix(sigs []minhash.Signature, est minhash.Estimator) *Matrix {
	m := MustMatrix(len(sigs))
	for i := range sigs {
		for j := i + 1; j < len(sigs); j++ {
			m.Set(i, j, est.Similarity(sigs[i], sigs[j]))
		}
	}
	return m
}
