// Package cluster implements the paper's two clustering algorithms over
// minwise-hash signatures: the greedy incremental procedure (Algorithm 1)
// and agglomerative hierarchical clustering over an all-pairs similarity
// matrix (Algorithm 2) with single, average and complete linkage.
package cluster

import (
	"fmt"

	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// GreedyOptions parameterizes Algorithm 1.
type GreedyOptions struct {
	// Threshold θ: a sequence joins the current cluster when its estimated
	// Jaccard similarity to the representative is at least θ.
	Threshold float64
	// LSH, when non-nil, is the band geometry (see GeometryFor) of a
	// BandIndex over the representatives: a read then checks only the
	// representatives sharing at least one band with it — the MC-LSH
	// acceleration folded into MrMC-MinH as an optional fast path. Labels
	// can differ slightly from the exact scan when a qualifying
	// representative never collides (missed-candidate recall loss).
	LSH *LSHOptions
	// Deprecated: ignored. Every clustering function reads similarity
	// through its SigSource, whose estimator is fixed when the source is
	// built (NewSliceSource, sigstore.Store.View). The field stays
	// because the perfbench module still sets it.
	Estimator minhash.Estimator
}

// Validate rejects out-of-range thresholds.
func (o GreedyOptions) Validate() error {
	if o.Threshold < 0 || o.Threshold > 1 {
		return fmt.Errorf("cluster: threshold must be in [0,1], got %v", o.Threshold)
	}
	return nil
}

// GreedySource runs Algorithm 1 over any signature source: the
// IncrementalSource fed elements 0..N-1 in order. Each sequence joins
// the lowest-labelled earlier representative whose similarity reaches
// the threshold, or else becomes a new cluster's representative.
// Sequences with empty signatures each form their own singleton cluster
// at every threshold (they carry no features to compare). On a store
// view it clusters borrowed signatures without ever materializing them
// as slices.
func GreedySource(src SigSource, opt GreedyOptions) (metrics.Clustering, error) {
	inc, err := NewIncrementalSource(src, opt)
	if err != nil {
		return nil, err
	}
	assign := make(metrics.Clustering, src.Len())
	for i := range assign {
		if assign[i], err = inc.Add(i); err != nil {
			return nil, err
		}
	}
	return assign, nil
}
