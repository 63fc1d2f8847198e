package cluster

import "fmt"

// IncrementalSource is an online version of Algorithm 1: reads arrive
// one at a time (a sequencer streaming out of a run, or an HDFS ingest
// pipe) and each source element is labelled immediately against the
// representatives seen so far. Representatives stay in the source (the
// store arena) and are remembered by index, never copied out. The
// greedy algorithm is order-sensitive, so the online and batch variants
// agree given the same arrival order.
type IncrementalSource struct {
	src SigSource
	opt GreedyOptions
	// index, when non-nil, holds every representative; its ids are the
	// cluster labels, because each new label adds exactly one
	// representative.
	index   *BandIndex
	candBuf []int
	reps    []int // cluster label -> representative's source index
	nReads  int
}

// NewIncrementalSource starts an online clusterer over src. Pass a nil
// lshGeometry for exact representative scans, or a geometry (see
// GeometryFor) for the banded fast path.
func NewIncrementalSource(src SigSource, opt GreedyOptions, lshGeometry *LSHOptions) (*IncrementalSource, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	inc := &IncrementalSource{src: src, opt: opt}
	if lshGeometry != nil {
		index, err := NewBandIndex(src, *lshGeometry)
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
	inc.nReads++
	if !inc.src.Empty(i) {
		if label, ok := inc.match(i); ok {
			return label, nil
		}
	}
	label := len(inc.reps)
	inc.reps = append(inc.reps, i)
	if inc.index != nil {
		inc.index.Add(i)
	}
	return label, nil
}

// match returns the label of the first representative — in label order,
// or in candidate order on the banded path — whose similarity to element
// i reaches the threshold.
func (inc *IncrementalSource) match(i int) (int, bool) {
	if inc.index == nil {
		for label, rep := range inc.reps {
			if inc.src.Similarity(i, rep) >= inc.opt.Threshold {
				return label, true
			}
		}
		return 0, false
	}
	inc.candBuf = inc.index.CandidatesInto(i, inc.candBuf[:0])
	for _, label := range inc.candBuf {
		if inc.src.Similarity(i, inc.reps[label]) >= inc.opt.Threshold {
			return label, true
		}
	}
	return 0, false
}

// NumClusters returns the number of clusters created so far.
func (inc *IncrementalSource) NumClusters() int { return len(inc.reps) }

// NumReads returns the number of signatures processed.
func (inc *IncrementalSource) NumReads() int { return inc.nReads }
