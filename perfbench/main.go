// Command perfbench is the repository's benchmark: it generates one
// workload's inputs from a seed, drives the workload's front door (the
// mrmcminh pipeline, Pig Algorithm 3, or the mrmcminhd daemon over HTTP),
// checks the outputs and prints every metric with its unit. The last line
// of standard output is the result object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 prints the end-to-end metrics of untraced runs; --trace 1
// prints the per-layer metrics of a traced run. run.sh builds this
// program and the daemon, then runs it from the repository root:
//
//	bash perfbench/run.sh --workload wgs-hier --seed 1 --seconds 20 --trace 0
//
// METRICS.md catalogues every workload and metric.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed     int64
	seconds  int
	trace    int
	scale    float64
	work     string // scratch directory for generated inputs and daemon state
	daemon   string // path of the mrmcminhd binary
	traceOut string // where a traced run writes its spans (JSON lines)
	refs     map[string]map[string]string
}

// runTimeout bounds a whole run, generation and teardown included.
const runTimeout = 170 * time.Second

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		role     = flag.String("role", "bench", "bench (default); worker (internal: the batch child process); refs (print refs.json for --seeds)")
		seeds    = flag.String("seeds", "0-20,9001", "refs: seeds to record, as comma-separated numbers or ranges")
		name     = flag.String("workload", "", "workload name (see METRICS.md)")
		seed     = flag.Int64("seed", 1, "input generation seed")
		seconds  = flag.Int("seconds", 20, "measurement time per run")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		scale    = flag.Float64("scale", 1, "input size factor; reference digests apply only at 1")
		root     = flag.String("root", ".", "repository root")
		daemon   = flag.String("daemon", ".bench_build/mrmcminhd", "mrmcminhd binary")
		in       = flag.String("in", "", "worker: directory holding reads.fa and truth.txt")
		traceOut = flag.String("trace-out", "", "file for the traced run's spans (default under .bench_build/traces)")
	)
	flag.Parse()
	if *role == "refs" {
		list, err := parseSeeds(*seeds)
		if err != nil {
			return err
		}
		work := filepath.Join(*root, ".bench_build", "work")
		if err := os.MkdirAll(work, 0o755); err != nil {
			return err
		}
		return recordRefs(os.Stdout, work, list)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *role == "worker" {
		return batchWorker(w, *in, *seconds, *traced, *traceOut)
	}

	refs, err := loadRefs(filepath.Join(*root, "perfbench"))
	if err != nil {
		return err
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *traced, scale: *scale,
		work:     filepath.Join(*root, ".bench_build", "work"),
		daemon:   *daemon,
		traceOut: *traceOut,
		refs:     refs,
	}
	if cfg.trace == 1 && cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(*root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	}
	for _, d := range []string{cfg.work, filepath.Dir(cfg.traceOut)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	if cfg.traceOut != "" {
		if cfg.traceOut, err = filepath.Abs(cfg.traceOut); err != nil {
			return err
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	rep := newReport(w.name, cfg.seed, cfg.trace, cfg.seconds)
	rep.Stamp = stamp(*root)
	if w.door == doorDaemon {
		err = runServe(ctx, w, cfg, rep)
	} else {
		err = runBatch(ctx, w, cfg, rep)
	}
	if err != nil {
		return err
	}
	set := endToEnd
	if cfg.trace == 1 {
		set = perLayer
	}
	return rep.emit(os.Stdout, set)
}

// parseSeeds reads "0-20,9001" style lists.
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed list %q: %w", s, err)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseInt(hi, 10, 64); err != nil {
				return nil, fmt.Errorf("seed list %q: %w", s, err)
			}
		}
		for v := a; v <= b; v++ {
			out = append(out, v)
		}
	}
	return out, nil
}
