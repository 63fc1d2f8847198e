package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// summary is one metric's sample distribution: median, quartiles (as
// Python's statistics.quantiles(n=4) computes them) and sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func summarize(samples []float64, unit string) summary {
	s := slices.Clone(samples)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return summary{Median: median(s), Q1: q1, Q3: q3, N: len(s), Unit: unit}
}

// median of an already sorted slice (0 when empty).
func median(s []float64) float64 {
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// medianOf sorts a copy of samples and returns its median.
func medianOf(samples []float64) float64 {
	s := slices.Clone(samples)
	sort.Float64s(s)
	return median(s)
}

// quartiles uses the "exclusive" method of Python's statistics.quantiles,
// clamped at the ends for very small samples.
func quartiles(s []float64) (float64, float64) {
	if len(s) < 2 {
		m := median(s)
		return m, m
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		delta := i*m - j*4
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank q-quantile of the samples.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

// report accumulates one run's metrics and checks.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Seconds   int                `json:"seconds"`
	Stamp     map[string]string  `json:"stamp"`
	Summaries map[string]summary `json:"summaries"`
	Checks    []string           `json:"check_failures"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
	Digest    string             `json:"digest,omitempty"`

	values map[string]float64
}

func newReport(w string, seed int64, trace, seconds int) *report {
	return &report{
		Workload: w, Seed: seed, Trace: trace, Seconds: seconds,
		Summaries: map[string]summary{},
		values:    map[string]float64{},
	}
}

// set records a single-valued metric.
func (r *report) set(name string, v float64) {
	r.values[name] = v
	r.Summaries[name] = summary{Median: v, Q1: v, Q3: v, N: 1, Unit: unitOf(name)}
}

// setSamples records a metric as the median of its samples.
func (r *report) setSamples(name string, samples []float64) {
	s := summarize(samples, unitOf(name))
	r.values[name] = s.Median
	r.Summaries[name] = s
}

func (r *report) failCheck(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the human-readable table and the detail line to w, then
// the contract's result object as the last line. Only the metrics of the
// run's set (end-to-end or per-layer) go into the result; a metric the
// run did not produce is a benchmark bug and fails the run.
func (r *report) emit(w io.Writer, set []metricDef) error {
	res := result{
		Correct:   len(r.Checks) == 0,
		Attempted: max(r.Attempted, 1),
		Failed:    r.Failed,
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	for _, m := range set {
		v, ok := r.values[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not produced: %s", strings.Join(missing, ", "))
	}
	for _, m := range set {
		s := r.Summaries[m.Name]
		fmt.Fprintf(w, "%-34s %14.6g %-8s (q1 %.6g, q3 %.6g, n=%d)\n", m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", c)
	}
	detail, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", detail)
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// stamp identifies the code and machine a result came from.
func stamp(root string) map[string]string {
	st := map[string]string{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"cpu":        cpuModel(),
		"commit":     "unknown",
		"source":     sourceDigest(root),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		st["commit"] = strings.TrimSpace(string(out))
	}
	return st
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources and go.mod, so a result
// taken outside a git checkout still names the code it measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
