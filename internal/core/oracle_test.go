package core

import (
	"testing"

	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// The references below cluster plain signature slices with brute-force
// loops and the un-prepared set-overlap estimator. The pipeline, which
// reads signatures through the signature store, is pinned to them.

// refSketch sketches each read from its k-mer set with the run's k, n,
// canonical flag and seed.
func refSketch(t *testing.T, reads []fasta.Record, opt Options) []minhash.Signature {
	t.Helper()
	sk, err := minhash.NewSketcher(opt.NumHashes, opt.K, opt.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ex := &kmer.Extractor{K: opt.K, Canonical: opt.Canonical}
	sigs := make([]minhash.Signature, len(reads))
	for i := range reads {
		sigs[i] = sk.Sketch(ex.Set(reads[i].Seq))
	}
	return sigs
}

// refMatrix is the sequential all-pairs similarity matrix.
func refMatrix(sigs []minhash.Signature) *cluster.Matrix {
	m := cluster.MustMatrix(len(sigs))
	for i := range sigs {
		for j := i + 1; j < len(sigs); j++ {
			m.Set(i, j, minhash.SetOverlap.Similarity(sigs[i], sigs[j]))
		}
	}
	return m
}

// refGreedy is Algorithm 1 as written in the paper. An empty signature
// is never compared: it neither sweeps later reads nor is swept.
func refGreedy(sigs []minhash.Signature, theta float64) metrics.Clustering {
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
			if assign[j] < 0 && !sigs[i].Empty() && !sigs[j].Empty() && minhash.SetOverlap.Similarity(sigs[i], sigs[j]) >= theta {
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
func refGreedyLSH(sigs []minhash.Signature, theta float64, geo cluster.LSHOptions) metrics.Clustering {
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
			for _, label := range buckets[b][minhash.BandHash(sig, b, geo.Rows)] {
				if !seen[label] && assign[i] < 0 {
					seen[label] = true
					if minhash.SetOverlap.Similarity(sig, sigs[reps[label]]) >= theta {
						assign[i] = label
					}
				}
			}
		}
		if assign[i] < 0 {
			assign[i] = len(reps)
			for b := 0; b < geo.Bands && !sig.Empty(); b++ {
				h := minhash.BandHash(sig, b, geo.Rows)
				buckets[b][h] = append(buckets[b][h], len(reps))
			}
			reps = append(reps, i)
		}
	}
	return assign
}

// refExact is the exact path's clustering of sigs under opt.
func refExact(t *testing.T, sigs []minhash.Signature, opt Options) metrics.Clustering {
	t.Helper()
	switch {
	case opt.Mode == HierarchicalMode:
		d, err := cluster.Hierarchical(refMatrix(sigs), cluster.HierarchicalOptions{Linkage: opt.Linkage})
		if err != nil {
			t.Fatal(err)
		}
		return d.CutAt(opt.Theta)
	case opt.UseLSH:
		return refGreedyLSH(sigs, opt.Theta, cluster.GeometryFor(opt.NumHashes, opt.Theta))
	default:
		return refGreedy(sigs, opt.Theta)
	}
}

// refComponents labels each read with its component of the θ-edge graph
// over all pairs: non-empty reads that share a band hash and reach theta.
func refComponents(sigs []minhash.Signature, theta float64, geo cluster.LSHOptions) []int {
	comp := make([]int, len(sigs)) // union-find parents
	find := func(i int) int {
		for comp[i] != i {
			i = comp[i]
		}
		return i
	}
	for i := range sigs {
		comp[i] = i
		for j := 0; j < i; j++ {
			shared := false
			for b := 0; b < geo.Bands && !sigs[i].Empty() && !sigs[j].Empty(); b++ {
				shared = shared || minhash.BandHash(sigs[i], b, geo.Rows) == minhash.BandHash(sigs[j], b, geo.Rows)
			}
			if shared && minhash.SetOverlap.Similarity(sigs[i], sigs[j]) >= theta {
				comp[find(i)] = find(j)
			}
		}
	}
	for i := range comp {
		comp[i] = find(i)
	}
	return comp
}

// refLSHCC is the CandidateLSH path: the exact algorithm clusters each
// of refComponents' components, and (component, label) pairs are
// numbered in order of first appearance. It assumes no bucket overflows
// the bucket cap.
func refLSHCC(t *testing.T, sigs []minhash.Signature, opt Options) metrics.Clustering {
	t.Helper()
	geo := opt.LSH
	if geo == (cluster.LSHOptions{}) {
		geo = cluster.GeometryFor(opt.NumHashes, opt.Theta)
	}
	comp := refComponents(sigs, opt.Theta, geo)
	members := map[int][]int{}
	for i, c := range comp {
		members[c] = append(members[c], i)
	}
	local := make([]int, len(sigs))
	exact := opt
	exact.UseLSH = false
	for _, ids := range members {
		sub := make([]minhash.Signature, len(ids))
		for k, i := range ids {
			sub[k] = sigs[i]
		}
		for k, label := range refExact(t, sub, exact) {
			local[ids[k]] = label
		}
	}
	type key struct{ comp, local int }
	global := map[key]int{}
	assign := make(metrics.Clustering, len(sigs))
	for i := range sigs {
		k := key{comp[i], local[i]}
		if _, ok := global[k]; !ok {
			global[k] = len(global)
		}
		assign[i] = global[k]
	}
	return assign
}

// refRun is the reference for Run(reads, opt).
func refRun(t *testing.T, reads []fasta.Record, opt Options) metrics.Clustering {
	t.Helper()
	opt = opt.withDefaults()
	sigs := refSketch(t, reads, opt)
	if opt.Candidate == CandidateLSH {
		return refLSHCC(t, sigs, opt)
	}
	return refExact(t, sigs, opt)
}
