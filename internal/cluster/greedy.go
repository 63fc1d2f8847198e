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

// GreedySource runs Algorithm 1 over any signature source: repeatedly
// take the first unassigned sequence as a new cluster's representative,
// then sweep all remaining unassigned sequences into the cluster when
// their similarity to the representative reaches the threshold.
// Sequences with empty signatures each form their own singleton cluster
// (they carry no features to compare). On a store view it clusters
// borrowed signatures without ever materializing them as slices.
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
