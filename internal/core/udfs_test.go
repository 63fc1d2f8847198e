package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/dfs"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
	"github.com/metagenomics/mrmcminh/internal/minhash"
	"github.com/metagenomics/mrmcminh/internal/pig"
	"github.com/metagenomics/mrmcminh/internal/sigstore"
)

// stageReads writes reads as FASTA to a fresh DFS at /in/reads.fa.
func stageReads(t *testing.T, reads []fasta.Record) *dfs.FileSystem {
	t.Helper()
	fs := dfs.MustNew(dfs.Config{NumDataNodes: 3, BlockSize: 4096, Replication: 2})
	var sb strings.Builder
	for _, r := range reads {
		fmt.Fprintf(&sb, ">%s\n%s\n", r.ID, r.Seq)
	}
	if err := fs.WriteFile("/in/reads.fa", []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	return fs
}

// sketchBag drives the Algorithm 3 UDF chain (StringGenerator,
// TranslateToKmer, CalculateMinwiseHash) over reads and returns the bag of
// (signature, seqid) tuples that GROUP F ALL hands to relation J.
func sketchBag(t *testing.T, reads []fasta.Record, k, n int) pig.Bag {
	t.Helper()
	ctx := &pig.Context{Seed: 5}
	div := int64(nextPrimeAbove(uint64(1) << (2 * uint(k))))
	bag := make(pig.Bag, len(reads))
	for i, r := range reads {
		enc, err := stringGenerator(ctx, []pig.Value{string(r.Seq), r.ID})
		if err != nil {
			t.Fatal(err)
		}
		kv, err := translateToKmer(ctx, []pig.Value{enc.(pig.Tuple).Fields[0], r.ID, int64(k)})
		if err != nil {
			t.Fatal(err)
		}
		var kmers []pig.Value
		for _, tup := range kv.(pig.Bag) {
			kmers = append(kmers, tup.Fields[0])
		}
		sig, err := calculateMinwiseHash(ctx, []pig.Value{kmers, r.ID, int64(n), div})
		if err != nil {
			t.Fatal(err)
		}
		bag[i] = sig.(pig.Tuple)
	}
	return bag
}

// TestPairwiseSimilarityMatchesLegacyEstimator pins the prepared kernel
// of relation J to the legacy per-pair estimator: every row value of
// CalculatePairwiseSimilarity, in both the paper's 2-arg form and the
// seqid form, is bit-identical to SetOverlap.Similarity on the underlying
// signatures — including an empty signature (a read shorter than k) and
// two reads that sketch identically.
func TestPairwiseSimilarityMatchesLegacyEstimator(t *testing.T) {
	const k, n = 8, 50
	reads, _ := makeReads(2, 3, 120, 0.03, 51)
	reads = append(reads,
		fasta.Record{ID: "twin", Seq: reads[1].Seq},
		fasta.Record{ID: "tiny", Seq: []byte("ACGTA")},
	)
	twin, tiny := len(reads)-2, len(reads)-1
	bag := sketchBag(t, reads, k, n)
	prep := make([]minhash.Prepared, len(bag))
	for i, tup := range bag {
		prep[i] = tup.Fields[0].(minhash.Prepared)
	}
	if !prep[tiny].Empty() {
		t.Fatal("read shorter than k did not sketch empty")
	}
	if !prep[twin].Sig.Equal(prep[1].Sig) {
		t.Fatal("identical reads sketched differently")
	}

	for i, tup := range bag {
		// The 2-arg form locates the row by signature equality, so the
		// twin resolves to the first read with its sketch.
		firstEqual := i
		if i == twin {
			firstEqual = 1
		}
		for _, form := range []struct {
			name    string
			args    []pig.Value
			wantIdx int
		}{
			{"seqid", []pig.Value{tup.Fields[0], tup.Fields[1], bag}, i},
			{"paper", []pig.Value{tup.Fields[0], bag}, firstEqual},
		} {
			v, err := calculatePairwiseSimilarity(nil, form.args)
			if err != nil {
				t.Fatal(err)
			}
			out := v.(pig.Tuple)
			if idx := out.Fields[1].(int64); int(idx) != form.wantIdx {
				t.Fatalf("%s form: row of %s located at %d, want %d", form.name, reads[i].ID, idx, form.wantIdx)
			}
			row := out.Fields[0].([]float64)
			for j, got := range row {
				if want := minhash.SetOverlap.Similarity(prep[i].Sig, prep[j].Sig); got != want {
					t.Fatalf("%s form: sim(%s,%s) = %v, legacy estimator %v", form.name, reads[i].ID, reads[j].ID, got, want)
				}
			}
		}
	}
}

// TestFastaStorageRejectsRepeatedReadID: CalculateMinwiseHash groups
// k-mers by read ID, so a repeated ID must fail the load instead of
// folding two reads into one signature.
func TestFastaStorageRejectsRepeatedReadID(t *testing.T) {
	reads, _ := makeReads(3, 5, 150, 0.01, 61)
	reads[9].ID = reads[4].ID
	fs := stageReads(t, reads)
	_, err := RunScript(fs, smallCluster(), ScriptParams{
		Input: "/in/reads.fa", Output1: "/out/hier", Output2: "/out/greedy",
		K: 8, NumHash: 40, Cutoff: 0.4,
	}, 62)
	if err == nil {
		t.Fatal("script accepted a FASTA with a repeated read ID")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("%q", reads[4].ID)) {
		t.Fatalf("error %q does not name the repeated ID %q", err, reads[4].ID)
	}
}

// TestGreedyClusteringHonoursStoreBits: relation L runs on the backing
// ScriptOptions.StoreBits selects — bit-identical between the full-width
// store and legacy slices, and equal to GreedySource over a 4-bit store
// view of the same signatures when packed.
func TestGreedyClusteringHonoursStoreBits(t *testing.T) {
	const k, n, theta = 8, 40, 0.5
	reads, _ := makeReads(4, 6, 150, 0.06, 71)
	p := ScriptParams{
		Input: "/in/reads.fa", Output1: "/out/hier", Output2: "/out/greedy",
		K: k, NumHash: n, Cutoff: theta,
	}
	greedy := func(bits int) *pig.RunResult {
		t.Helper()
		run, err := runScript(stageReads(t, reads), smallCluster(), p, 72, ScriptOptions{StoreBits: bits})
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	render := func(rel *pig.Relation) []string {
		out := make([]string, len(rel.Tuples))
		for i, tup := range rel.Tuples {
			out[i] = pig.FormatValue(tup)
		}
		return out
	}

	full := render(greedy(0).Aliases["L"])
	if sliced := render(greedy(-1).Aliases["L"]); !slices.Equal(sliced, full) {
		t.Fatalf("L differs between the full-width store and slices:\n%v\n%v", full, sliced)
	}

	packed := greedy(4)
	bag := packed.Aliases["I"].Tuples[0].Fields[1].(pig.Bag)
	sigs, ids, err := bagSignatures("test", bag)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sigstore.New(sigstore.Config{NumHashes: n, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutBatch(0, sigs); err != nil {
		t.Fatal(err)
	}
	view, err := st.View(minhash.SetOverlap)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := cluster.GreedySource(view, cluster.GreedyOptions{Threshold: theta, Estimator: minhash.SetOverlap})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(ids))
	for i, id := range ids {
		want[i] = pig.FormatValue(pig.NewTuple(id, int64(labels[i])))
	}
	got := render(packed.Aliases["L"])
	if !slices.Equal(got, want) {
		t.Fatalf("4-bit L differs from GreedySource over a 4-bit store view:\n%v\n%v", got, want)
	}
	// The input must separate the backings, or the check above could not
	// tell a packed L from a full-width one.
	if slices.Equal(got, full) {
		t.Fatal("4-bit and full-width L agree on this input; the test cannot see the backing")
	}
}

// TestPreparedSignaturesRenderAsSignatures: a script that DUMPs or
// STOREs the sketch relations prints each signature exactly as a bare
// minhash.Signature renders, not the Prepared struct's fields.
func TestPreparedSignaturesRenderAsSignatures(t *testing.T) {
	reads, _ := makeReads(1, 3, 60, 0.05, 81)
	fs := stageReads(t, reads)
	compiled, err := pig.Compile(`
A = LOAD '/in/reads.fa' USING FastaStorage AS (readid:chararray, d:int, seq:bytearray, header:chararray);
B = FOREACH A GENERATE FLATTEN(StringGenerator(seq, readid)) AS (seq:chararray, seqid:chararray);
C = FOREACH B GENERATE FLATTEN(TranslateToKmer(seq, seqid, 6)) AS (seqkmer:long, seqid2:chararray);
E = FOREACH C GENERATE FLATTEN(CalculateMinwiseHash(seqkmer, seqid2, 4, 4099)) AS (minwise:long, seqid3:chararray);
F = FOREACH E GENERATE FLATTEN(minwise), FLATTEN(seqid3);
DUMP F;
STORE E INTO '/out/e';
`)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := mapreduce.NewEngine(smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	res, err := compiled.Run(&pig.Context{FS: fs, Engine: engine, Registry: NewRegistry(), Seed: 82, Params: map[string]string{}})
	if err != nil {
		t.Fatal(err)
	}
	var dump, store []string
	for _, tup := range res.Aliases["F"].Tuples {
		sig := fmt.Sprint(tup.Fields[0].(minhash.Prepared).Sig)
		dump = append(dump, "("+sig+","+tup.Fields[1].(string)+")")
	}
	for _, tup := range res.Aliases["E"].Tuples {
		sig := fmt.Sprint(tup.Fields[0].(minhash.Prepared).Sig)
		store = append(store, sig+"\t"+tup.Fields[1].(string))
	}
	if got := res.Dumps["F"]; strings.Join(got, "\n") != strings.Join(dump, "\n") {
		t.Fatalf("DUMP F rendered\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(dump, "\n"))
	}
	stored, err := fs.ReadFile("/out/e/part-00000")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(stored)); got != strings.Join(store, "\n") {
		t.Fatalf("STORE E wrote\n%s\nwant\n%s", got, strings.Join(store, "\n"))
	}
}
