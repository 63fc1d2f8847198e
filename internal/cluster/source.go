package cluster

import (
	"fmt"

	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// SigSource is index-aligned, borrowed access to a signature corpus: the
// seam that lets the clustering algorithms run identically over
// per-run Go slices (SliceSource, the legacy oracle) and the resident
// sharded signature store (sigstore.View satisfies this interface
// structurally — cluster must not import sigstore). Implementations
// must be safe for concurrent Similarity/BandHash calls: the parallel
// matrix builder and map tasks fan pairs out over a worker pool.
type SigSource interface {
	// Len returns the number of signatures.
	Len() int
	// NumHashes returns the signature length n (for slice sources with
	// ragged lengths, the maximum — matching GreedyLSH's geometry check).
	NumHashes() int
	// Empty reports whether signature i came from an empty feature set.
	Empty(i int) bool
	// Similarity estimates the Jaccard similarity of signatures i and j,
	// bit-identical to Estimator.SimilarityPrepared on the same corpus
	// for full-width sources.
	Similarity(i, j int) float64
	// BandHash returns the LSH band hash of signature i.
	BandHash(i, band, rows int) uint64
}

// SliceSource adapts a signature slice (Prepared once, like every batch
// entry point) to SigSource. It is the slice-backed reference
// implementation the store-backed paths are equivalence-tested against.
type SliceSource struct {
	sigs   []minhash.Signature
	prep   []minhash.Prepared
	est    minhash.Estimator
	sigLen int
}

// NewSliceSource prepares sigs once and wraps them as a source.
func NewSliceSource(sigs []minhash.Signature, est minhash.Estimator) *SliceSource {
	sigLen := 0
	for _, s := range sigs {
		if len(s) > sigLen {
			sigLen = len(s)
		}
	}
	return &SliceSource{sigs: sigs, prep: minhash.PrepareAll(sigs), est: est, sigLen: sigLen}
}

func (s *SliceSource) Len() int       { return len(s.sigs) }
func (s *SliceSource) NumHashes() int { return s.sigLen }
func (s *SliceSource) Empty(i int) bool {
	return s.sigs[i].Empty()
}
func (s *SliceSource) Similarity(i, j int) float64 {
	return s.est.SimilarityPrepared(s.prep[i], s.prep[j])
}
func (s *SliceSource) BandHash(i, band, rows int) uint64 {
	return minhash.BandHash(s.sigs[i], band, rows)
}

// Sig returns the underlying signature for i (borrowed).
func (s *SliceSource) Sig(i int) minhash.Signature { return s.sigs[i] }

// Prepared returns the cached Prepared view for i.
func (s *SliceSource) Prepared(i int) minhash.Prepared { return s.prep[i] }

// PackedSig returns the zero value: slice sources hold full-width
// signatures only. (Mirrors sigstore.View's Sig/PackedSig pairing so
// both satisfy the pipeline's source interface.)
func (s *SliceSource) PackedSig(int) minhash.BBitSignature { return minhash.BBitSignature{} }

// SubsetSource restricts a source to ids: element i of the subset is
// element ids[i] of the parent. The per-component cluster stages use it
// to run the exact algorithms over one component's members without
// copying signatures out of the store.
type SubsetSource struct {
	src SigSource
	ids []int
}

// Subset returns a view of src restricted to ids (not copied; the caller
// must not mutate ids while the subset is in use).
func Subset(src SigSource, ids []int) *SubsetSource {
	return &SubsetSource{src: src, ids: ids}
}

func (s *SubsetSource) Len() int                    { return len(s.ids) }
func (s *SubsetSource) NumHashes() int              { return s.src.NumHashes() }
func (s *SubsetSource) Empty(i int) bool            { return s.src.Empty(s.ids[i]) }
func (s *SubsetSource) Similarity(i, j int) float64 { return s.src.Similarity(s.ids[i], s.ids[j]) }
func (s *SubsetSource) BandHash(i, band, rows int) uint64 {
	return s.src.BandHash(s.ids[i], band, rows)
}

// GreedySource runs Algorithm 1 (see Greedy) over any signature source.
// On a SliceSource it returns exactly Greedy's clustering; on a store
// view it is the path that clusters borrowed signatures without ever
// materializing them as slices.
func GreedySource(src SigSource, opt GreedyOptions) (metrics.Clustering, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	n := src.Len()
	assign := make(metrics.Clustering, n)
	for i := range assign {
		assign[i] = -1
	}
	next := 0
	for first := 0; first < n; first++ {
		if assign[first] >= 0 {
			continue
		}
		label := next
		next++
		assign[first] = label
		if src.Empty(first) {
			continue // nothing can match an empty signature
		}
		for j := first + 1; j < n; j++ {
			if assign[j] >= 0 {
				continue
			}
			if src.Similarity(first, j) >= opt.Threshold {
				assign[j] = label
			}
		}
	}
	return assign, nil
}

// GreedyLSHSource is GreedyLSH over any signature source. It replicates
// the BandIndex candidate discipline exactly — per-band buckets in
// insertion order, generation-stamped dedup, first-encounter-across-bands
// candidate order — so its clustering is identical to GreedyLSH on the
// same corpus.
func GreedyLSHSource(src SigSource, opt GreedyOptions, lsh LSHOptions) (metrics.Clustering, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	n := src.Len()
	if n > 0 {
		if err := lsh.Validate(src.NumHashes()); err != nil {
			return nil, err
		}
	}
	if lsh.Bands < 1 || lsh.Rows < 1 {
		return nil, fmt.Errorf("cluster: LSH bands and rows must be positive (got %d, %d)", lsh.Bands, lsh.Rows)
	}
	assign := make(metrics.Clustering, n)
	for i := range assign {
		assign[i] = -1
	}
	buckets := make([]map[uint64][]int, lsh.Bands)
	for b := range buckets {
		buckets[b] = make(map[uint64][]int)
	}
	var (
		repOrig  []int // rep id -> source index
		repLabel []int // rep id -> cluster label
		marks    []uint32
		gen      uint32
		candBuf  []int
	)
	next := 0
	for i := 0; i < n; i++ {
		placed := false
		if !src.Empty(i) {
			gen++
			if gen == 0 { // generation counter wrapped: invalidate stale marks
				for k := range marks {
					marks[k] = 0
				}
				gen = 1
			}
			candBuf = candBuf[:0]
			for b := 0; b < lsh.Bands; b++ {
				h := src.BandHash(i, b, lsh.Rows)
				for _, id := range buckets[b][h] {
					if marks[id] != gen {
						marks[id] = gen
						candBuf = append(candBuf, id)
					}
				}
			}
			for _, cand := range candBuf {
				if src.Similarity(i, repOrig[cand]) >= opt.Threshold {
					assign[i] = repLabel[cand]
					placed = true
					break
				}
			}
		}
		if !placed {
			id := len(repOrig)
			repOrig = append(repOrig, i)
			repLabel = append(repLabel, next)
			marks = append(marks, 0)
			for b := 0; b < lsh.Bands; b++ {
				h := src.BandHash(i, b, lsh.Rows)
				buckets[b][h] = append(buckets[b][h], id)
			}
			assign[i] = next
			next++
		}
	}
	return assign, nil
}

// HierarchicalFromSource is the end-to-end Algorithm 2 over any
// signature source: parallel tiled matrix build from the source's
// pairwise kernel, dendrogram, cut at θ. On a SliceSource it returns
// exactly HierarchicalFromSignatures' clustering.
func HierarchicalFromSource(src SigSource, link Linkage, theta float64) (metrics.Clustering, error) {
	if theta < 0 || theta > 1 {
		return nil, fmt.Errorf("cluster: threshold must be in [0,1], got %v", theta)
	}
	m := BuildMatrixParallelFunc(src.Len(), 0, src.Similarity)
	d, err := Hierarchical(m, HierarchicalOptions{Linkage: link})
	if err != nil {
		return nil, err
	}
	return d.CutAt(theta), nil
}

// IncrementalSource is the online Algorithm 1 over a signature source:
// reads are labelled one dense ID at a time against representatives that
// stay *in* the source (the store arena) — representatives are
// remembered by index, never copied out. With a geometry it mirrors
// Incremental's banded fast path; with nil it scans representatives
// exactly.
type IncrementalSource struct {
	src     SigSource
	opt     GreedyOptions
	lsh     *LSHOptions
	buckets []map[uint64][]int
	marks   []uint32
	gen     uint32
	candBuf []int
	repIdx  []int // rep id -> source index
	repOf   []int // rep id -> cluster label (banded path)
	nLabels int
	nReads  int
}

// NewIncrementalSource starts an online clusterer over src. Pass a nil
// lshGeometry for exact representative scans.
func NewIncrementalSource(src SigSource, opt GreedyOptions, lshGeometry *LSHOptions) (*IncrementalSource, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	inc := &IncrementalSource{src: src, opt: opt}
	if lshGeometry != nil {
		if err := lshGeometry.Validate(src.NumHashes()); err != nil {
			return nil, err
		}
		g := *lshGeometry
		inc.lsh = &g
		inc.buckets = make([]map[uint64][]int, g.Bands)
		for b := range inc.buckets {
			inc.buckets[b] = make(map[uint64][]int)
		}
	}
	return inc, nil
}

// Add labels source element i and returns its cluster id. Elements must
// be added at most once; labels are stable for the clusterer's lifetime.
func (inc *IncrementalSource) Add(i int) (int, error) {
	if i < 0 || i >= inc.src.Len() {
		return 0, fmt.Errorf("cluster: source index %d out of range [0,%d)", i, inc.src.Len())
	}
	inc.nReads++
	if !inc.src.Empty(i) {
		if inc.lsh != nil {
			inc.gen++
			if inc.gen == 0 {
				for k := range inc.marks {
					inc.marks[k] = 0
				}
				inc.gen = 1
			}
			inc.candBuf = inc.candBuf[:0]
			for b := 0; b < inc.lsh.Bands; b++ {
				h := inc.src.BandHash(i, b, inc.lsh.Rows)
				for _, id := range inc.buckets[b][h] {
					if inc.marks[id] != inc.gen {
						inc.marks[id] = inc.gen
						inc.candBuf = append(inc.candBuf, id)
					}
				}
			}
			for _, cand := range inc.candBuf {
				if inc.src.Similarity(i, inc.repIdx[cand]) >= inc.opt.Threshold {
					return inc.repOf[cand], nil
				}
			}
		} else {
			for label, rep := range inc.repIdx {
				if inc.src.Similarity(i, rep) >= inc.opt.Threshold {
					return label, nil
				}
			}
		}
	}
	label := inc.nLabels
	inc.nLabels++
	if inc.lsh != nil {
		id := len(inc.repIdx)
		inc.marks = append(inc.marks, 0)
		for b := 0; b < inc.lsh.Bands; b++ {
			h := inc.src.BandHash(i, b, inc.lsh.Rows)
			inc.buckets[b][h] = append(inc.buckets[b][h], id)
		}
		inc.repOf = append(inc.repOf, label)
	}
	inc.repIdx = append(inc.repIdx, i)
	return label, nil
}

// NumClusters returns the number of clusters created so far.
func (inc *IncrementalSource) NumClusters() int { return inc.nLabels }

// NumReads returns the number of signatures processed.
func (inc *IncrementalSource) NumReads() int { return inc.nReads }
