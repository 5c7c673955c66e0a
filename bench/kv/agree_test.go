package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// saveRuns writes one saved run output per value into a new directory:
// untraced runs reporting lat_us = untraced[i], and traced runs reporting
// layer_ns = traced[i].
func saveRuns(t *testing.T, host hostInfo, untraced, traced []float64) string {
	t.Helper()
	dir := t.TempDir()
	names := [2]string{"lat_us", "layer_ns"}
	for trace, values := range [][]float64{untraced, traced} {
		name := names[trace]
		for i, v := range values {
			h, _ := json.Marshal(map[string]runHeader{"kvbench": {Workload: "w", Seed: uint64(i), Trace: trace, Host: host}})
			r, _ := json.Marshal(report{Correct: true, Attempted: 1, Metrics: map[string]metric{name: {Value: v, Unit: "us"}}})
			out := fmt.Sprintf("%s\nsome progress line\n%s\n", h, r)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run-%d-%d.out", trace, i)), []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir
}

func TestAgree(t *testing.T) {
	bounds := filepath.Join(t.TempDir(), "BENCHMARK.json")
	def := `{"workloads":[{"name":"w","why":"x"}],
		"end_to_end":[{"name":"lat_us","unit":"us","better":"lower","bound":0.05}],
		"per_layer":[{"name":"layer_ns","unit":"ns","better":"lower"}]}`
	if err := os.WriteFile(bounds, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	host := hostInfo{NumCPU: 2, GOMAXPROCS: 2, GOGC: 100, GoVersion: "go1.22", Kernel: "6.1", Arch: "x86_64", Commit: "a"}
	other := host
	other.Commit = "b" // a different commit on the same host is what agree compares
	moved := host
	moved.Kernel = "6.2"

	steady := []float64{100, 98, 103, 101, 99}
	base := saveRuns(t, host, steady, steady)
	cases := []struct {
		name string
		dir  string
		want int
	}{
		{"within bound", saveRuns(t, other, []float64{102, 100, 104, 101, 103}, steady), 0},
		{"beyond bound", saveRuns(t, other, []float64{110, 108, 111, 109, 112}, steady), 1},
		{"per-layer metrics are not judged", saveRuns(t, other, steady, []float64{200, 210, 190, 205, 195}), 0},
		{"no untraced runs", saveRuns(t, other, nil, steady), 1},
		{"other host", saveRuns(t, moved, steady, steady), 2},
	}
	for _, c := range cases {
		if got := agreeMain([]string{"--bounds", bounds, base, c.dir}); got != c.want {
			t.Errorf("%s: agree exited %d, want %d", c.name, got, c.want)
		}
	}
}
