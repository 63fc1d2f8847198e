package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the program %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced,
// through the same binaries run.sh builds, and checks that each run is
// correct and prints every metric of its set with its unit. It includes
// serve-mixed, which BENCHMARK.json leaves out, so the code that drives
// the daemon keeps working.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	b := loadBenchmarkJSON(t)
	bin := t.TempDir()
	for _, c := range [][]string{
		{"go", "build", "-o", filepath.Join(bin, "perfbench"), "."},
		{"go", "build", "-o", filepath.Join(bin, "mrmcminhd"), "../cmd/mrmcminhd"},
	} {
		cmd := exec.Command(c[0], c[1:]...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", strings.Join(c, " "), err, out)
		}
	}
	for _, w := range workloads {
		for _, tr := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+tr, func(t *testing.T) {
				cmd := exec.Command(filepath.Join(bin, "perfbench"), "--root", "..",
					"--daemon", filepath.Join(bin, "mrmcminhd"), "--workload", w.name,
					"--seed", "7", "--seconds", "1", "--trace", tr, "--scale", "0.02",
					"--trace-out", filepath.Join(t.TempDir(), "spans.jsonl"))
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.Bytes())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, out)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("run not correct: %+v\n%s", res, out)
				}
				set := b.EndToEnd
				if tr == "1" {
					set = b.PerLayer
				}
				if len(res.Metrics) != len(set) {
					t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(set))
				}
				for _, m := range set {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s printed in %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestCorruptedOutputFailsCheck feeds each output check a deliberately
// corrupted output.
func TestCorruptedOutputFailsCheck(t *testing.T) {
	ids := []string{"a", "b", "c", "d"}
	truth := []string{"x", "x", "y", "y"}
	good := []int{0, 0, 1, 1}
	digest, acc, err := checkLabels(ids, good, truth)
	if err != nil || acc != 100 {
		t.Fatalf("clean output: digest %s acc %v err %v", digest, acc, err)
	}
	if _, _, err := checkLabels(ids, []int{0, 0, -1, 1}, truth); err == nil {
		t.Error("an unlabelled read passed the check")
	}
	if _, _, err := checkLabels(ids, good[:3], truth); err == nil {
		t.Error("a missing label passed the check")
	}
	if d, _, _ := checkLabels(ids, []int{5, 5, 9, 9}, truth); d != digest {
		t.Error("renumbered labels changed the partition digest")
	}

	moved := []int{0, 1, 1, 1}
	d, _, _ := checkLabels(ids, moved, truth)
	rep := newReport("t", 1, 0, 1)
	checkDigests(rep, []string{d}, digest)
	if len(rep.Checks) == 0 {
		t.Error("a read moved to another cluster passed the reference check")
	}
	rep = newReport("t", 1, 0, 1)
	checkDigests(rep, []string{digest, d}, "")
	if len(rep.Checks) == 0 {
		t.Error("runs that disagree passed the run-to-run check")
	}

	// Serve: an acked read missing from the dump, and one in the wrong
	// cluster, each fail the check.
	g := &loadGen{acked: map[string]int{"r1": 0, "r2": 1}}
	var st serverStats
	st.Stats.Accepted, st.Stats.Acked = 2, 3
	truthOf := map[string]string{"p": "x", "r1": "x", "r2": "y"}
	rep = newReport("t", 1, 0, 1)
	g.check(rep, st, map[string]int{"p": 0, "r1": 0, "r2": 1}, 1, truthOf)
	if len(rep.Checks) != 0 {
		t.Fatalf("clean serve output failed: %v", rep.Checks)
	}
	for _, rows := range []map[string]int{
		{"p": 0, "r1": 0},
		{"p": 0, "r1": 0, "r2": 0},
	} {
		rep = newReport("t", 1, 0, 1)
		g.check(rep, st, rows, 1, truthOf)
		if len(rep.Checks) == 0 {
			t.Errorf("corrupted dump %v passed the serve check", rows)
		}
	}
}
