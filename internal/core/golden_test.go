package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/metagenomics/mrmcminh/internal/mapreduce"
)

// TestGoldenModelRuntime pins core.ModelRuntime, in nanoseconds, at the
// Figure 2 grid points (hierarchical mode, 100 hashes) and at the
// speculative ablation's straggled and speculative clusters.
func TestGoldenModelRuntime(t *testing.T) {
	// want[reads] holds the clean, straggled and speculative runtimes
	// for 2, 4, 6, 8, 10 and 12 nodes.
	want := map[int][3][6]time.Duration{
		1000: {
			{55140000000, 53582560000, 53055040000, 52803840000, 52628000000, 52527520000},
			{55140000000, 80747680000, 79165120000, 78411520000, 77884000000, 77582560000},
			{55140000000, 66373840000, 65582560000, 65205760000, 64942000000, 64791280000},
		},
		10000: {
			{83400000000, 67700000000, 62475040000, 59862560000, 58280000000, 57250080000},
			{83400000000, 123100000000, 107425120000, 99587680000, 94840000000, 91750240000},
			{83400000000, 87550000000, 79712560000, 75793840000, 73420000000, 71875120000},
		},
		100000: {
			{366000000000, 209000000000, 156675040000, 130500000000, 114800000000, 104350080000},
			{366000000000, 547000000000, 390025120000, 311500000000, 264400000000, 233050240000},
			{366000000000, 299500000000, 221012560000, 181750000000, 158200000000, 142525120000},
		},
		1000000: {
			{3204000000000, 1622000000000, 1098675040000, 837000000000, 680000000000, 575350080000},
			{6368000000000, 4786000000000, 3216025120000, 2431000000000, 1960000000000, 1646050240000},
			{4001000000000, 2419000000000, 1634012560000, 1241500000000, 1006000000000, 849025120000},
		},
		10000000: {
			{32288937600000, 16577427200000, 10789980800000, 8309216000000, 6655372800000, 5828451200000},
			{43039923200000, 23193804800000, 16578432000000, 13270745600000, 11616902400000, 9963059200000},
			{34782707200000, 18244275200000, 12455824000000, 9969059200000, 8315216000000, 6667372800000},
		},
	}
	slowCost := mapreduce.DefaultCostModel
	slowCost.StragglerFraction = 0.05
	slowCost.StragglerSlowdown = 5
	for reads, rows := range want {
		t.Run(fmt.Sprintf("reads=%d", reads), func(t *testing.T) {
			for ni, nodes := range []int{2, 4, 6, 8, 10, 12} {
				clean := mapreduce.Cluster{Nodes: nodes, SlotsPerNode: 2, Cost: mapreduce.DefaultCostModel}
				straggled := mapreduce.Cluster{Nodes: nodes, SlotsPerNode: 2, Cost: slowCost}
				speculative := straggled
				speculative.Speculative = true
				for ci, c := range []mapreduce.Cluster{clean, straggled, speculative} {
					if got := ModelRuntime(reads, c, HierarchicalMode, 100); got != rows[ci][ni] {
						t.Errorf("nodes=%d cluster %d: %d ns, want %d", nodes, ci, int64(got), int64(rows[ci][ni]))
					}
				}
			}
		})
	}
}

// TestGoldenPipelineVirtual pins the exact modelled time, in
// nanoseconds, of the executed pipelines on one fixed small input: the
// exact hierarchical path, the LSH-candidate greedy path and the Pig
// Algorithm 3 script.
func TestGoldenPipelineVirtual(t *testing.T) {
	reads, _ := makeReads(3, 5, 200, 0.01, 11)
	base := Options{K: 8, NumHashes: 50, Theta: 0.4, Cluster: smallCluster(), Seed: 12}

	hierOpt := base
	hierOpt.Mode = HierarchicalMode
	hier, err := Run(reads, hierOpt)
	if err != nil {
		t.Fatal(err)
	}
	lshOpt := base
	lshOpt.Mode = GreedyMode
	lshOpt.Candidate = CandidateLSH
	lsh, err := Run(reads, lshOpt)
	if err != nil {
		t.Fatal(err)
	}

	script, err := RunScriptOpts(stageReads(t, reads), smallCluster(), ScriptParams{
		Input: "/in/reads.fa", Output1: "/out/hier", Output2: "/out/greedy",
		K: 8, NumHash: 50, Link: "average", Cutoff: 0.4,
	}, 12, ScriptOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{
		{"exact-hierarchical", hier.Virtual, 52025000000},
		{"lsh-greedy", lsh.Virtual, 229068042230},
		{"script", script.Virtual, 214369690430},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.got != c.want {
				t.Errorf("Virtual = %d ns, want %d", int64(c.got), int64(c.want))
			}
		})
	}
}
