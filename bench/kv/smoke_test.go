package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// readBenchmarkDef reads BENCHMARK.json from the repository root.
func readBenchmarkDef(t *testing.T) *benchmarkFile {
	t.Helper()
	def, err := loadBenchmark(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return def
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	def := readBenchmarkDef(t)
	want := make(map[string]metricDef)
	for _, d := range metricDefs {
		want[d.name] = d
	}
	seen := 0
	for _, list := range []struct {
		endToEnd bool
		defs     []metricSpec
	}{{true, def.EndToEnd}, {false, def.PerLayer}} {
		for _, m := range list.defs {
			d, ok := want[m.Name]
			switch {
			case !ok:
				t.Errorf("BENCHMARK.json names %s, which the benchmark does not measure", m.Name)
			case d.unit != m.Unit || d.endToEnd != list.endToEnd:
				t.Errorf("%s: BENCHMARK.json says unit %s, end-to-end %v; the code says %s, %v",
					m.Name, m.Unit, list.endToEnd, d.unit, d.endToEnd)
			}
			seen++
		}
	}
	if seen != len(metricDefs) {
		t.Errorf("BENCHMARK.json names %d metrics, the code measures %d", seen, len(metricDefs))
	}
	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code has %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s does not exist", w.Name)
		}
	}
}

// TestSmoke runs every workload at smoke-test scale, untraced and
// traced, and checks each emits every metric BENCHMARK.json names with
// a finite value and no failed op.
func TestSmoke(t *testing.T) {
	def := readBenchmarkDef(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := newOptions(w, 1, time.Second, trace, true)
			o.workDir, o.traceRoot = t.TempDir(), t.TempDir()
			rep, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			names := def.EndToEnd
			if trace {
				names = def.PerLayer
			}
			if len(rep.Metrics) != len(names) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(rep.Metrics), len(names))
			}
			for _, n := range names {
				m, ok := rep.Metrics[n.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w.name, trace, n.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, n.Name, m.Value)
				}
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			if !trace {
				continue
			}
			if e := rep.Metrics["error_rate"].Value; e != 0 {
				t.Errorf("%s: error_rate = %v", w.name, e)
			}
			for _, f := range []string{"spans.jsonl", "layers.json"} {
				if _, err := os.Stat(filepath.Join(traceDir(o.traceRoot, w.name, 1), f)); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
	}
}
