package cluster

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// matrixTile is the row/column block edge of the parallel matrix build.
// A tile pair touches 2·matrixTile signatures (~100 sorted values each),
// small enough to stay in L2 while the tile's matrixTile² cells are
// filled.
const matrixTile = 64

// BuildMatrixParallel computes the all-pairs similarity matrix from
// signatures using a pool of workers (0 means GOMAXPROCS). Signatures
// are Prepared once so every pair comparison is allocation-free, and
// row blocks are fanned out over the pool with each worker writing only
// its own rows — lock-free and race-free by construction. The result is
// cell-for-cell identical to the sequential per-pair loop regardless of
// worker count.
func BuildMatrixParallel(sigs []minhash.Signature, est minhash.Estimator, workers int) *Matrix {
	prep := minhash.PrepareAll(sigs)
	return BuildMatrixParallelFunc(len(sigs), workers, func(i, j int) float64 {
		return est.SimilarityPrepared(prep[i], prep[j])
	})
}

// BuildMatrixParallelFunc fills an n×n symmetric similarity matrix from
// an arbitrary pairwise kernel, tiled and fanned out over a worker pool
// (0 workers means GOMAXPROCS). sim is called once per unordered pair
// (i<j) and must be safe for concurrent calls; the diagonal is fixed at
// 1 by the Matrix type. The alignment-based baselines (DOTUR, Mothur,
// ESPRIT) share this builder with the sketch path.
func BuildMatrixParallelFunc(n, workers int, sim func(i, j int) float64) *Matrix {
	m := MustMatrix(n)
	if n < 2 {
		return m
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nBlocks := (n + matrixTile - 1) / matrixTile
	if workers > nBlocks {
		workers = nBlocks
	}

	// Phase 1: upper triangle. Each worker claims whole row blocks from
	// an atomic counter (dynamic balancing: early rows hold more pairs)
	// and sweeps them in column tiles for locality, writing only cells
	// (i,j) with i inside the claimed block and j > i.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= nBlocks {
					return
				}
				lo := b * matrixTile
				hi := min(n, lo+matrixTile)
				for jlo := lo; jlo < n; jlo += matrixTile {
					jhi := min(n, jlo+matrixTile)
					for i := lo; i < hi; i++ {
						row := m.rowSlice(i)
						for j := max(i+1, jlo); j < jhi; j++ {
							row[j] = float32(sim(i, j))
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	// Phase 2: mirror the lower triangle. Workers again own disjoint row
	// blocks and only write their own rows, reading the upper triangle
	// completed before the barrier above.
	next.Store(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= nBlocks {
					return
				}
				lo := b * matrixTile
				hi := min(n, lo+matrixTile)
				for i := lo; i < hi; i++ {
					row := m.rowSlice(i)
					for j := 0; j < i; j++ {
						row[j] = m.data[j*n+i]
					}
				}
			}
		}()
	}
	wg.Wait()
	return m
}
