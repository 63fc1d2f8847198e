package main

import (
	"fmt"
	"math/rand"

	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/core"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
	"github.com/metagenomics/mrmcminh/internal/simulate"
)

// frontDoor names the entry point a workload drives.
type frontDoor int

const (
	doorPipeline frontDoor = iota // core.Run, the mrmcminh pipeline
	doorPig                       // core.RunScriptOpts with core.Algorithm3Script
	doorDaemon                    // cmd/mrmcminhd over HTTP
)

// workload is one input set and the front door it runs through. The
// catalogue (METRICS.md) repeats each why.
type workload struct {
	name string
	why  string
	door frontDoor
	// gen builds the inputs from the seed; scale < 1 shrinks them (the
	// smoke test runs at a tiny scale).
	gen func(seed int64, scale float64) ([]fasta.Record, []string, error)
	// opt is the clustering configuration (the daemon and Pig workloads
	// use its K, NumHashes, Theta, Linkage and Canonical fields).
	opt core.Options
}

// hashSeed seeds the hash-function draws. It is fixed: the --seed
// argument varies only the generated inputs.
const hashSeed = 1

// benchCluster is the simulated deployment of every batch workload.
var benchCluster = mapreduce.Cluster{Nodes: 4, SlotsPerNode: 2, Cost: mapreduce.DefaultCostModel}

var workloads = []workload{
	{
		name: "wgs-hier",
		why:  "long reads, exact hierarchical path: sketch and the O(N^2) similarity rows do the work; map-only jobs shuffle 0 bytes",
		door: doorPipeline,
		gen: func(seed int64, scale float64) ([]fasta.Record, []string, error) {
			spec, err := simulate.TableIISpec("S9")
			if err != nil {
				return nil, nil, err
			}
			return simulate.BuildWholeMetagenome(spec, 0.04*scale, 0.01, seed)
		},
		opt: core.Options{
			K: 20, NumHashes: 100, Theta: 0.55, Mode: core.HierarchicalMode,
			Linkage: cluster.Single, Canonical: true, Seed: hashSeed, Cluster: benchCluster,
		},
	},
	{
		name: "dedup-lsh",
		why:  "many small near-duplicate groups on the LSH path: shuffle and key plumbing, candidate verify and CC rounds do the work",
		door: doorPipeline,
		gen: func(seed int64, scale float64) ([]fasta.Record, []string, error) {
			reads, truth := nearDuplicates(max(1, int(3277*scale)), 10, 100, 0.004, seed)
			return reads, truth, nil
		},
		opt: core.Options{
			K: 8, NumHashes: 24, Theta: 0.9, Mode: core.GreedyMode,
			Candidate: core.CandidateLSH, LSH: cluster.LSHOptions{Bands: 4, Rows: 6},
			Seed: hashSeed, Cluster: benchCluster,
		},
	},
	{
		name: "pig-alg3",
		why:  "the paper's Algorithm 3 through the Pig interpreter and UDFs; the all-pairs FOREACH J dominates",
		door: doorPig,
		gen: func(seed int64, scale float64) ([]fasta.Record, []string, error) {
			return sample16S(max(8, int(600*scale)), seed)
		},
		opt: core.Options{
			K: 15, NumHashes: 50, Theta: 0.246, Linkage: cluster.Average, Seed: hashSeed,
		},
	},
	{
		name: "serve-mixed",
		why:  "the daemon as its own process: open-loop 32-read submits beside closed-loop queries on the epoch-published view",
		door: doorDaemon,
		gen: func(seed int64, scale float64) ([]fasta.Record, []string, error) {
			return sample16S(max(64, int(float64(servePreload+serveFresh)*scale)), seed)
		},
		opt: core.Options{K: 15, NumHashes: 50, Theta: 0.246, Seed: hashSeed},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// nearDuplicates builds g groups of m reads, each a copy of a random
// template with every base mutated at rate mut; truth is the group.
// Reads of one group are adjacent, as in the scale benchmarks of
// internal/core.
func nearDuplicates(g, m, length int, mut float64, seed int64) ([]fasta.Record, []string) {
	rng := rand.New(rand.NewSource(seed))
	reads := make([]fasta.Record, 0, g*m)
	truth := make([]string, 0, g*m)
	template := make([]byte, length)
	for gi := range g {
		for i := range template {
			template[i] = "ACGT"[rng.Intn(4)]
		}
		for mi := range m {
			seq := append([]byte(nil), template...)
			for i := range seq {
				if rng.Float64() < mut {
					seq[i] = "ACGT"[rng.Intn(4)]
				}
			}
			reads = append(reads, fasta.Record{ID: fmt.Sprintf("g%d_r%d", gi, mi), Seq: seq})
			truth = append(truth, fmt.Sprint(gi))
		}
	}
	return reads, truth
}

// communitySeed fixes the simulated 16S community (its 43 reference
// genes and the pool of reads drawn from them). The --seed argument
// chooses which pool reads a run gets and in what order, so seeds vary
// the inputs without redrawing the community whose structure sets the
// clustering cost.
const communitySeed = 1

// sample16S draws n reads at random from a pool of 2n Huse et al. 16S
// reads (3% error) of the fixed community.
func sample16S(n int, seed int64) ([]fasta.Record, []string, error) {
	// BuildHuse16S rounds the count down to a multiple of its 43 taxa.
	scale := float64(2*n+43) / 345000
	if scale > 1 {
		return nil, nil, fmt.Errorf("16S sample of %d reads exceeds the model's size", n)
	}
	reads, truth, err := simulate.BuildHuse16S(0.03, scale, communitySeed)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(reads), func(i, j int) {
		reads[i], reads[j] = reads[j], reads[i]
		truth[i], truth[j] = truth[j], truth[i]
	})
	return reads[:n], truth[:n], nil
}
