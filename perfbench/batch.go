package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/core"
	"github.com/metagenomics/mrmcminh/internal/dfs"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/minhash"
	"github.com/metagenomics/mrmcminh/internal/sigstore"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// Batch workloads run in a child process (the worker) that receives only
// the generated FASTA file, so its peak RSS is the clustering process's
// own and none of the generator's.

const (
	setupReps   = 25          // FASTA reads (and DFS stagings) timed per run, at least...
	setupMin    = time.Second // ...and for at least this long
	minTimed    = 3           // untraced front-door calls per run, at least
	greedyProbe = 4096
	matrixProbe = 2048
)

// workerOut is what the worker hands back to its parent.
type workerOut struct {
	Setup    []float64          `json:"setup_s"`
	Jobs     []float64          `json:"job_s"`
	Traced   []float64          `json:"traced_job_s"`
	Digests  []string           `json:"digests"`
	WAcc     float64            `json:"w_acc_pct"`
	Modelled float64            `json:"modelled_s"`
	Failures []string           `json:"failures"`
	Layers   map[string]float64 `json:"layers"`
}

// runBatch generates the inputs, runs the worker and turns its samples
// into metrics.
func runBatch(ctx context.Context, w workload, cfg runConfig, rep *report) error {
	reads, truth, err := w.gen(cfg.seed, cfg.scale)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.work, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := fasta.WriteFile(filepath.Join(dir, "reads.fa"), reads); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "truth.txt"), []byte(strings.Join(truth, "\n")+"\n"), 0o644); err != nil {
		return err
	}

	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, self, "--role", "worker", "--workload", w.name,
		"--in", dir, "--seconds", fmt.Sprint(cfg.seconds), "--trace", fmt.Sprint(cfg.trace),
		"--trace-out", cfg.traceOut)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	var wo workerOut
	if err := json.Unmarshal(out, &wo); err != nil {
		return fmt.Errorf("worker output: %w", err)
	}
	rusage := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	peakMB := float64(rusage.Maxrss) / 1024 // Linux reports KiB

	rep.Attempted = len(wo.Digests) + len(wo.Failures)
	rep.Failed = len(wo.Failures)
	for _, f := range wo.Failures {
		rep.failCheck("%s", f)
	}
	want := ""
	if cfg.scale == 1 {
		want = cfg.refs[w.name][fmt.Sprint(cfg.seed)]
	}
	checkDigests(rep, wo.Digests, want)

	ok := float64(rep.Attempted-rep.Failed) / float64(max(rep.Attempted, 1))
	if cfg.trace == 0 {
		if len(wo.Jobs) == 0 {
			return fmt.Errorf("worker timed no front-door call")
		}
		rep.setSamples("job_s", wo.Jobs)
		rep.set("w_acc_pct", wo.WAcc)
		rep.set("peak_rss_mb", peakMB)
		rep.setSamples("setup_s", wo.Setup)
		rep.set("ok_pct", 100*ok)
		return nil
	}
	rep.zeroLayers()
	for k, v := range wo.Layers {
		rep.set(k, v)
	}
	if len(wo.Jobs) > 0 && len(wo.Traced) > 0 {
		rep.set("trace.overhead_pct", 100*(medianOf(wo.Traced)/medianOf(wo.Jobs)-1))
	}
	if w.door != doorPig {
		return nil
	}
	// The serve layer has no batch front door. Pig Algorithm 3 runs the
	// daemon's parameters on the same 16S community, so its traced run
	// also replays the daemon's write path in process.
	pool, _, err := sample16S(servePreload+replayBatches*batchReads, cfg.seed)
	if err != nil {
		return err
	}
	bodies := submitBodies(pool[servePreload:], 0, replayBatches)
	return replay(w, strings.TrimSuffix(cfg.traceOut, ".jsonl")+".serve.jsonl", dir, pool[:servePreload], bodies, false, rep)
}

// batchWorker is the child process: it loads the FASTA (timed as
// set-up), calls the front door repeatedly, checks every output and, on
// a traced run, measures the layers.
func batchWorker(w workload, dir string, seconds, traced int, traceOut string) error {
	raw, err := os.ReadFile(filepath.Join(dir, "truth.txt"))
	if err != nil {
		return err
	}
	truth := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	path := filepath.Join(dir, "reads.fa")

	var wo workerOut
	var reads []fasta.Record
	for start := time.Now(); len(wo.Setup) < setupReps || time.Since(start) < setupMin; {
		runtime.GC() // each repetition starts from a collected heap
		t0 := time.Now()
		if reads, err = fasta.ReadFile(path); err != nil {
			return err
		}
		if w.door == doorPig {
			if _, err := stage(path); err != nil {
				return err
			}
		}
		wo.Setup = append(wo.Setup, time.Since(t0).Seconds())
	}
	ids := make([]string, len(reads))
	for i, r := range reads {
		ids[i] = r.ID
	}
	if len(truth) != len(reads) {
		return fmt.Errorf("%d truth labels for %d reads", len(truth), len(reads))
	}

	// call runs the front door once. Pig needs a fresh DFS per call
	// (STORE refuses existing outputs); staging it is set-up, not job.
	call := func(rec *trace.Recorder) (float64, error) {
		var fs *dfs.FileSystem
		if w.door == doorPig {
			var err error
			if fs, err = stage(path); err != nil {
				return 0, err
			}
		}
		// Start every call from a collected heap, so one call's garbage
		// is not charged to the next.
		runtime.GC()
		ref := rec.Begin(trace.KindJob, "bench:front-door")
		t0 := time.Now()
		digest, acc, modelled, layers, err := frontDoorCall(w, fs, reads, ids, truth, rec)
		wall := time.Since(t0).Seconds()
		rec.End(ref)
		if err != nil {
			wo.Failures = append(wo.Failures, err.Error())
			return 0, nil
		}
		wo.Digests = append(wo.Digests, digest)
		wo.WAcc, wo.Modelled = acc, modelled
		if rec.Enabled() {
			wo.Layers = layers
			wo.Layers["core.driver_s"] = wall - layers["engine_jobs_s"]
			delete(wo.Layers, "engine_jobs_s")
			wo.Layers["mapreduce.modelled_s"] = modelled
		}
		return wall, nil
	}

	// Warm-up: fills caches and the worker's heap; checked, not timed.
	if _, err := call(nil); err != nil {
		return err
	}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	if traced == 0 {
		for len(wo.Jobs) < minTimed || time.Now().Before(deadline) {
			wall, err := call(nil)
			if err != nil {
				return err
			}
			if wall > 0 {
				wo.Jobs = append(wo.Jobs, wall)
			}
			if len(wo.Failures) > 0 {
				break
			}
		}
	} else {
		// Untraced and traced calls alternate, twice, for the overhead;
		// the layer metrics and the written spans are the last traced
		// call's.
		var rec *trace.Recorder
		for i := range 4 {
			r := (*trace.Recorder)(nil)
			if i%2 == 1 {
				rec = trace.New()
				r = rec
			}
			wall, err := call(r)
			if err != nil {
				return err
			}
			if wall > 0 && r == nil {
				wo.Jobs = append(wo.Jobs, wall)
			} else if wall > 0 {
				wo.Traced = append(wo.Traced, wall)
			}
		}
		if wo.Layers == nil {
			wo.Layers = map[string]float64{}
		}
		if err := probeLayers(w, reads, rec, wo.Layers); err != nil {
			return err
		}
		if traceOut != "" {
			if err := trace.WriteFile(traceOut, rec.Spans()); err != nil {
				return err
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	return enc.Encode(wo)
}

// stage copies the FASTA into a fresh simulated DFS, as pigrun -stage does.
func stage(path string) (*dfs.FileSystem, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fs, err := dfs.New(dfs.Config{NumDataNodes: benchCluster.Nodes, BlockSize: 256 * 1024, Replication: 3})
	if err != nil {
		return nil, err
	}
	return fs, fs.WriteFile("/in/reads.fa", data)
}

// frontDoorCall runs one clustering through the workload's front door,
// checks that every read is labelled and returns the partition digest,
// the weighted accuracy, the modelled time and (traced) the span-derived
// layer metrics.
func frontDoorCall(w workload, fs *dfs.FileSystem, reads []fasta.Record, ids, truth []string, rec *trace.Recorder) (string, float64, float64, map[string]float64, error) {
	switch w.door {
	case doorPipeline:
		opt := w.opt
		opt.Trace = rec
		res, err := core.Run(reads, opt)
		if err != nil {
			return "", 0, 0, nil, err
		}
		digest, acc, err := checkLabels(res.ReadIDs, res.Assignments, truth)
		if err != nil {
			return "", 0, 0, nil, err
		}
		var layers map[string]float64
		if rec.Enabled() {
			layers = spanLayers(rec.Spans())
			c := res.Counters
			layers["core.lsh_candidate_pairs"] = float64(c["lsh.candidate_pairs"])
			layers["core.lsh_edges"] = float64(c["lsh.edges"])
			layers["core.lsh_bucket_overflow"] = float64(c["lsh.bucket_overflow"])
			if c["lsh.candidate_pairs"] > 0 {
				layers["core.lsh_verify_yield"] = float64(c["lsh.edges"]) / float64(c["lsh.candidate_pairs"])
			}
			layers["mapreduce.map_output_records"] = float64(c["map.output.records"])
			layers["mapreduce.task_failures"] = float64(c["task.failures"])
			layers["cluster.cc_active_edges"] = float64(c["cc.active_edges"])
			layers["sigstore.resident_bytes"] = float64(c["sigstore.resident_bytes"])
		}
		return digest, acc, res.Virtual.Seconds(), layers, nil
	case doorPig:
		p := core.ScriptParams{
			Input: "/in/reads.fa", Output1: "/out/hierarchical", Output2: "/out/greedy",
			K: w.opt.K, NumHash: w.opt.NumHashes, Link: w.opt.Linkage.String(), Cutoff: w.opt.Theta,
		}
		res, err := core.RunScriptOpts(fs, benchCluster, p, hashSeed, core.ScriptOptions{Trace: rec})
		if err != nil {
			return "", 0, 0, nil, err
		}
		hd, acc, err := checkLabels(ids, labelsFromMap(ids, res.Hierarchical), truth)
		if err != nil {
			return "", 0, 0, nil, fmt.Errorf("relation K: %w", err)
		}
		gd, _, err := checkLabels(ids, labelsFromMap(ids, res.Greedy), truth)
		if err != nil {
			return "", 0, 0, nil, fmt.Errorf("relation L: %w", err)
		}
		var layers map[string]float64
		if rec.Enabled() {
			layers = spanLayers(rec.Spans())
			layers["pig.jobs"] = float64(res.Jobs)
		}
		return hd + "/" + gd, acc, res.Virtual.Seconds(), layers, nil
	}
	return "", 0, 0, nil, fmt.Errorf("workload %s has no batch front door", w.name)
}

// coreJobs maps the pipeline's MapReduce job names to their metrics.
var coreJobs = map[string]string{
	"mrmcminh-sketch":     "core.sketch_job_s",
	"mrmcminh-simrows":    "core.simrows_job_s",
	"mrmcminh-lsh-bands":  "core.lsh_bands_job_s",
	"mrmcminh-lsh-verify": "core.lsh_verify_job_s",
	"mrmcminh-lsh-finish": "core.lsh_finish_job_s",
}

// spanLayers folds the engine's and the Pig interpreter's spans into layer
// metrics. engine_jobs_s (every engine job's real time) is the part of
// the front-door call the jobs account for; the caller turns it into
// core.driver_s.
func spanLayers(spans []trace.Span) map[string]float64 {
	m := map[string]float64{}
	for _, s := range spans {
		sec := s.RDur.Seconds()
		switch s.Kind {
		case trace.KindJob:
			if strings.HasPrefix(s.Name, "bench:") {
				continue
			}
			m["engine_jobs_s"] += sec
			m["mapreduce.jobs"]++
			if name, ok := coreJobs[s.Name]; ok {
				m[name] += sec
			}
			if s.Name == "cc-large-star" || s.Name == "cc-small-star" {
				m["cluster.cc_s"] += sec
			}
			if s.Name == "cc-large-star" {
				m["cluster.cc_rounds"]++
			}
		case trace.KindMap:
			m["mapreduce.map_task_s"] += sec
		case trace.KindReduce:
			m["mapreduce.reduce_task_s"] += sec
		case trace.KindShuffle:
			m["mapreduce.shuffle_bytes"] += float64(s.Bytes)
		case trace.KindPigOp:
			alias, _, ok := strings.Cut(s.Name, " = ")
			if !ok {
				alias = "STORE"
			}
			m["pig.op_s."+alias] += sec
		}
	}
	return m
}

// countingSource counts the similarity evaluations a search makes.
type countingSource struct {
	cluster.SigSource
	calls int64
}

func (c *countingSource) Similarity(i, j int) float64 {
	c.calls++
	return c.SigSource.Similarity(i, j)
}

// probeLayers times each layer's public functions on the workload's
// reads, each call inside a bench span. The O(N^2) probes run on a
// prefix of the reads (greedyProbe, matrixProbe).
func probeLayers(w workload, reads []fasta.Record, rec *trace.Recorder, m map[string]float64) error {
	timed := func(name string, fn func() error) (float64, error) {
		ref := rec.Begin(trace.KindJob, "bench:"+name)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0).Seconds()
		rec.End(ref)
		return d, err
	}
	opt := w.opt
	sk, err := minhash.NewSketcher(opt.NumHashes, opt.K, hashSeed)
	if err != nil {
		return err
	}
	ex := &kmer.Extractor{K: opt.K, Canonical: opt.Canonical}
	sigs := make([]minhash.Signature, len(reads))
	var evals float64
	d, _ := timed("minhash.sketch", func() error {
		var kms []uint64
		for i, r := range reads {
			kms = ex.SliceInto(kms[:0], r.Seq)
			sigs[i] = sk.SketchInto(nil, kms)
			evals += float64(len(kms) * opt.NumHashes)
		}
		return nil
	})
	m["minhash.sketch_s"] = d
	m["minhash.hash_evals"] = evals
	if evals > 0 {
		m["minhash.ns_per_hash_eval"] = d * 1e9 / evals
	}

	var store *sigstore.Store
	if m["sigstore.build_s"], err = timed("sigstore.build", func() error {
		var err error
		if store, err = sigstore.New(sigstore.Config{NumHashes: opt.NumHashes}); err != nil {
			return err
		}
		return store.PutBatch(0, sigs)
	}); err != nil {
		return err
	}
	if m["sigstore.resident_bytes"] == 0 {
		m["sigstore.resident_bytes"] = float64(store.ResidentBytes())
	}
	view, err := store.View(minhash.SetOverlap)
	if err != nil {
		return err
	}
	prefix := func(n int) []int {
		ids := make([]int, min(n, len(reads)))
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	src := &countingSource{SigSource: cluster.Subset(view, prefix(greedyProbe))}
	if m["cluster.greedy_s"], err = timed("cluster.greedy", func() error {
		_, err := cluster.GreedySource(src, cluster.GreedyOptions{Threshold: opt.Theta, Estimator: minhash.SetOverlap})
		return err
	}); err != nil {
		return err
	}
	m["cluster.greedy_sim_calls"] = float64(src.calls)

	var mat *cluster.Matrix
	m["cluster.matrix_s"], _ = timed("cluster.matrix", func() error {
		mat = cluster.BuildMatrixParallel(sigs[:len(prefix(matrixProbe))], minhash.SetOverlap, runtime.GOMAXPROCS(0))
		return nil
	})
	m["cluster.dendrogram_s"], err = timed("cluster.dendrogram", func() error {
		dg, err := cluster.Hierarchical(mat, cluster.HierarchicalOptions{Linkage: opt.Linkage})
		if err != nil {
			return err
		}
		dg.CutAt(opt.Theta)
		return nil
	})
	return err
}
