package cluster

import "fmt"

// postingsMinReps is the representative count from which the exact scan
// of a set-overlap source counts shared values off a postings list
// instead of comparing the read with each representative. Below it a
// source is too small to repay building the list: the LSH path's
// per-component stage clusters thousands of ten-read components. On
// whole-metagenome and 16S reads both searches cost about the same over
// 16 reads, and the postings search is 2–4× cheaper from 32 on.
const postingsMinReps = 16

// IncrementalSource is Algorithm 1, and its only implementation: reads
// arrive one at a time (a sequencer streaming out of a run, an HDFS
// ingest pipe, or GreedySource walking a corpus in order) and each
// source element is labelled immediately against the representatives
// seen so far. A read joins the lowest-labelled representative whose
// similarity reaches θ — on the banded path, the first candidate in
// band order — or else becomes a new representative. An empty signature
// is never compared, never joins a cluster and is never joined, at every
// θ: it is a singleton. Representatives stay in the source (the store
// arena) and are remembered by index, never copied out.
//
// Without a band index, a source whose Values are set (full-width set
// overlap) is searched by counting the values a read shares with each
// representative off an append-only postings list, once there are
// postingsMinReps representatives; every other source compares the read
// with each representative through Similarity. Both searches return
// bit-identical labels.
type IncrementalSource struct {
	src  SigSource
	opt  GreedyOptions
	reps []int // cluster label -> representative's source index
	// searched holds the labels of the non-empty representatives in
	// ascending order: the only ones a search visits. Band index ids and
	// postings entries are positions in it.
	searched []int
	index    *BandIndex
	candBuf  []int
	post     *repPostings // nil until the postings search starts
}

// NewIncrementalSource starts an online clusterer over src. opt.LSH
// selects the banded fast path; nil runs the exact search.
func NewIncrementalSource(src SigSource, opt GreedyOptions) (*IncrementalSource, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	inc := &IncrementalSource{src: src, opt: opt}
	if opt.LSH != nil {
		index, err := NewBandIndex(src, *opt.LSH)
		if err != nil {
			return nil, err
		}
		inc.index = index
	}
	return inc, nil
}

// Add labels source element i and returns its cluster id. Elements must
// be added at most once; labels are stable for the clusterer's lifetime.
func (inc *IncrementalSource) Add(i int) (int, error) {
	if i < 0 || i >= inc.src.Len() {
		return 0, fmt.Errorf("cluster: source index %d out of range [0,%d)", i, inc.src.Len())
	}
	label := len(inc.reps)
	if inc.src.Empty(i) {
		inc.reps = append(inc.reps, i)
		return label, nil
	}
	vals := inc.src.Values(i)
	if match, ok := inc.match(i, vals); ok {
		return match, nil
	}
	inc.reps = append(inc.reps, i)
	inc.searched = append(inc.searched, label)
	if inc.index != nil {
		inc.index.Add(i)
	}
	if inc.post != nil {
		inc.post.add(vals)
	}
	return label, nil
}

// match returns the label a non-empty element i joins, if any.
func (inc *IncrementalSource) match(i int, vals []uint64) (int, bool) {
	if inc.index != nil {
		inc.candBuf = inc.index.CandidatesInto(i, inc.candBuf[:0])
		for _, k := range inc.candBuf {
			if label := inc.searched[k]; inc.src.Similarity(i, inc.reps[label]) >= inc.opt.Threshold {
				return label, true
			}
		}
		return 0, false
	}
	if vals != nil && len(inc.reps) >= postingsMinReps {
		if inc.post == nil {
			inc.post = &repPostings{lists: make(map[uint64][]int32)}
			for _, label := range inc.searched {
				inc.post.add(inc.src.Values(inc.reps[label]))
			}
		}
		pos, ok := inc.post.first(vals, inc.opt.Threshold)
		if !ok {
			return 0, false
		}
		return inc.searched[pos], true
	}
	for _, label := range inc.searched {
		if inc.src.Similarity(i, inc.reps[label]) >= inc.opt.Threshold {
			return label, true
		}
	}
	return 0, false
}

// repPostings is the exact search's postings list over the non-empty
// representatives of a set-overlap source: for each minwise value, the
// positions (in IncrementalSource.searched) of the representatives
// holding it. A search costs one counter bump per value a read shares
// with a representative instead of one sorted-list merge per
// representative — reads from different genomes share almost no values.
type repPostings struct {
	lists   map[uint64][]int32
	sizes   []int32 // position -> distinct-value count
	counts  []int32 // position -> values shared with the current read; all zero between searches
	touched []int32 // positions whose count is non-zero
}

// add appends the next representative's distinct values.
func (p *repPostings) add(vals []uint64) {
	pos := int32(len(p.sizes))
	for _, v := range vals {
		p.lists[v] = append(p.lists[v], pos)
	}
	p.sizes = append(p.sizes, int32(len(vals)))
	p.counts = append(p.counts, 0)
}

// first returns the lowest position whose set-overlap similarity with
// vals reaches theta. The similarity is inter/(|A|+|B|-inter) from the
// same integers and the same division as minhash.SetOverlap's pairwise
// kernel and minhash.Postings.Row, so it matches a per-pair scan bit for
// bit.
func (p *repPostings) first(vals []uint64, theta float64) (int, bool) {
	if theta == 0 {
		// A representative sharing no value scores 0, which reaches θ = 0.
		return 0, len(p.sizes) > 0
	}
	for _, v := range vals {
		for _, pos := range p.lists[v] {
			if p.counts[pos] == 0 {
				p.touched = append(p.touched, pos)
			}
			p.counts[pos]++
		}
	}
	best := -1
	for _, pos := range p.touched {
		inter := int(p.counts[pos])
		p.counts[pos] = 0
		if (best < 0 || int(pos) < best) && float64(inter)/float64(len(vals)+int(p.sizes[pos])-inter) >= theta {
			best = int(pos)
		}
	}
	p.touched = p.touched[:0]
	return best, best >= 0
}
