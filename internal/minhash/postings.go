package minhash

import (
	"fmt"
	"math"
	"math/bits"
)

// Postings is an inverted index over a prepared corpus: for every
// distinct slot value, the ascending indices of the reads whose Vals
// contain it. A similarity row then costs one counter increment per
// shared value instead of one sorted-list merge per pair — reads from
// different genomes share almost no minwise values, so nearly every
// merge of the pairwise kernel computes an empty intersection (the
// MapReduce pairwise-similarity scheme of Elsayed, Lin & Oard, 2008).
//
// The layout is compressed sparse rows built by sorting (value, read)
// pairs: reads holds the postings grouped by value, and each (read,
// value) slot remembers where the postings after its own read start and
// where its value's list ends, so Row never searches for a value. An
// index is immutable once built and safe for concurrent Row calls.
type Postings struct {
	// reads lists every posting, grouped by value (values ascending) and
	// ascending by read index within a value.
	reads []int32
	// off[r]:off[r+1] are read r's slots, one per value of its Vals; the
	// span length is |Vals_r| (0 for an empty signature, which is left
	// out of the index).
	off []int32
	// reads[next[s]:end[s]] are the later reads sharing slot s's value.
	next, end []int32
}

// NewPostings indexes the set-overlap values of a prepared corpus.
func NewPostings(prep []Prepared) (*Postings, error) {
	total := 0
	for _, p := range prep {
		if !p.Empty() {
			total += len(p.Vals)
		}
	}
	if total > math.MaxInt32 || len(prep) > math.MaxInt32 {
		return nil, fmt.Errorf("minhash: postings index of %d reads and %d values exceeds int32 positions", len(prep), total)
	}
	type posting struct {
		val        uint64
		read, slot int32
	}
	ps := make([]posting, 0, total)
	off := make([]int32, len(prep)+1)
	for r, p := range prep {
		off[r+1] = off[r]
		if p.Empty() {
			continue
		}
		for _, v := range p.Vals {
			ps = append(ps, posting{val: v, read: int32(r), slot: off[r+1]})
			off[r+1]++
		}
	}
	// A stable LSD radix sort by value over the significant bytes: the
	// postings were appended in read order, so each value's list stays
	// ascending by read.
	var maxVal uint64
	for _, q := range ps {
		maxVal |= q.val
	}
	buf := make([]posting, total)
	for shift := 0; shift < bits.Len64(maxVal); shift += 8 {
		var start [257]int
		for _, q := range ps {
			start[int(byte(q.val>>shift))+1]++
		}
		for d := 1; d < len(start); d++ {
			start[d] += start[d-1]
		}
		for _, q := range ps {
			d := byte(q.val >> shift)
			buf[start[d]] = q
			start[d]++
		}
		ps, buf = buf, ps
	}
	idx := &Postings{reads: make([]int32, total), off: off, next: make([]int32, total), end: make([]int32, total)}
	for lo := 0; lo < total; {
		hi := lo + 1
		for hi < total && ps[hi].val == ps[lo].val {
			hi++
		}
		for k := lo; k < hi; k++ {
			idx.reads[k] = ps[k].read
			idx.next[ps[k].slot] = int32(k + 1)
			idx.end[ps[k].slot] = int32(hi)
		}
		lo = hi
	}
	return idx, nil
}

// Len returns the number of reads indexed.
func (p *Postings) Len() int { return len(p.off) - 1 }

// Row computes read i's set-overlap similarity with every later read:
// dst[k] becomes SetOverlap.SimilarityPrepared of reads i and i+1+k,
// bit for bit (same intersection and union integers, same division).
// dst must have length Len()-i-1. counts is caller scratch of length
// Len() that must be all zero on entry; Row leaves it all zero.
func (p *Postings) Row(i int, dst []float64, counts []int32) {
	for s := p.off[i]; s < p.off[i+1]; s++ {
		for _, j := range p.reads[p.next[s]:p.end[s]] {
			counts[j]++
		}
	}
	li := p.off[i+1] - p.off[i]
	for k := range dst {
		j := i + 1 + k
		inter := counts[j]
		if inter == 0 {
			// Also covers an empty signature on either side, and a
			// union of 0, exactly as the pairwise kernel does.
			dst[k] = 0
			continue
		}
		counts[j] = 0
		dst[k] = float64(inter) / float64(li+p.off[j+1]-p.off[j]-inter)
	}
}
