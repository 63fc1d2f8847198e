package cluster

import (
	"fmt"
	"math"
)

// LSHOptions sizes the banding index used to accelerate greedy clustering.
type LSHOptions struct {
	// Bands × Rows must not exceed the signature length. A pair with
	// Jaccard similarity s collides in some band with probability
	// 1-(1-s^Rows)^Bands; pick geometry so the S-curve knee sits at the
	// clustering threshold (rule of thumb: (1/Bands)^(1/Rows) ≈ θ).
	Bands, Rows int
}

// Validate rejects unusable geometry. A sigLen of 0 — a slice source
// holding no signature — has no length to check the geometry against;
// only its positivity is validated.
func (o LSHOptions) Validate(sigLen int) error {
	if o.Bands < 1 || o.Rows < 1 {
		return fmt.Errorf("cluster: LSH bands and rows must be positive (got %d, %d)", o.Bands, o.Rows)
	}
	if sigLen > 0 && o.Bands*o.Rows > sigLen {
		return fmt.Errorf("cluster: LSH needs %d signature slots but only %d available", o.Bands*o.Rows, sigLen)
	}
	return nil
}

// GeometryFor picks a banding whose collision S-curve knee approximates
// theta given n signature slots: rows grow until (1/bands)^(1/rows) ≥ θ.
func GeometryFor(n int, theta float64) LSHOptions {
	if n < 2 {
		return LSHOptions{Bands: 1, Rows: 1}
	}
	best := LSHOptions{Bands: n, Rows: 1}
	for rows := 1; rows <= n; rows++ {
		bands := n / rows
		if bands < 1 {
			break
		}
		knee := kneeOf(bands, rows)
		best = LSHOptions{Bands: bands, Rows: rows}
		if knee >= theta {
			return best
		}
	}
	return best
}

// kneeOf approximates the S-curve threshold (1/b)^(1/r).
func kneeOf(bands, rows int) float64 {
	return math.Pow(1/float64(bands), 1/float64(rows))
}

// BandIndex is the banded-LSH candidate index of the authors' earlier
// MC-LSH (and of Sunarso et al.'s protein clustering) over a SigSource:
// every element added is filed under the hash of each of its bands, and
// a query's candidates are the added elements sharing at least one band
// hash. A pair with Jaccard similarity s becomes a candidate with
// probability minhash.CollisionProbability(s, Bands, Rows).
type BandIndex struct {
	src     SigSource
	rows    int
	buckets []map[uint64][]int // per band: band hash -> ids, in insertion order
	// marks/gen implement allocation-free candidate dedup: marks[id]
	// holds the generation of the last query that saw id, so a query
	// only needs one counter bump instead of a fresh set.
	marks []uint32
	gen   uint32
}

// NewBandIndex creates an empty index over src's signatures.
func NewBandIndex(src SigSource, geo LSHOptions) (*BandIndex, error) {
	if err := geo.Validate(src.NumHashes()); err != nil {
		return nil, err
	}
	ix := &BandIndex{src: src, rows: geo.Rows, buckets: make([]map[uint64][]int, geo.Bands)}
	for b := range ix.buckets {
		ix.buckets[b] = make(map[uint64][]int)
	}
	return ix, nil
}

// Add files source element i under its band hashes. Ids are dense in
// insertion order: the k-th element added has id k.
func (ix *BandIndex) Add(i int) {
	id := len(ix.marks)
	ix.marks = append(ix.marks, 0)
	for b, bucket := range ix.buckets {
		h := ix.src.BandHash(i, b, ix.rows)
		bucket[h] = append(bucket[h], id)
	}
}

// CandidatesInto appends to buf the ids of the added elements that share
// a band hash with source element i, each once, in order of first
// encounter across bands, and returns the extended slice. Passing buf[:0]
// of a reused slice makes a query allocation-free.
func (ix *BandIndex) CandidatesInto(i int, buf []int) []int {
	ix.gen++
	if ix.gen == 0 { // generation counter wrapped: invalidate stale marks
		clear(ix.marks)
		ix.gen = 1
	}
	for b, bucket := range ix.buckets {
		for _, id := range bucket[ix.src.BandHash(i, b, ix.rows)] {
			if ix.marks[id] != ix.gen {
				ix.marks[id] = ix.gen
				buf = append(buf, id)
			}
		}
	}
	return buf
}
