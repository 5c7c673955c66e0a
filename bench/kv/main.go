// Command kvbench is the benchmark of the replicated KV store
// (internal/cluster and the layers under it). It drives the store only
// through public APIs, generates every input from a seed before any
// clock starts, keeps every latency as a raw sample, checks every value
// the store returns, and prints one JSON result line last.
//
//	kvbench --workload read95-zipf --seed 1 --seconds 25 --trace 0
//	kvbench agree [--bounds BENCHMARK.json] RUNS_A RUNS_B
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with spans on, times each layer from outside, reports the
// per-layer metrics, and writes spans.jsonl and layers.json under
// --trace-dir. agree compares two directories of saved run outputs.
// README.md has the workloads, the metrics and the measured spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "agree" {
		os.Exit(agreeMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// buildDir holds everything a run leaves behind, relative to the
// directory it runs from.
const buildDir = ".bench_build"

func runMain(args []string) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("kvbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 25, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	traceRoot := fs.String("trace-dir", filepath.Join(buildDir, "trace"), "where traced runs write spans.jsonl and layers.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(os.Stderr, "kvbench: unexpected arguments %q\n", fs.Args())
		return 2
	case !ok:
		fmt.Fprintf(os.Stderr, "kvbench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(os.Stderr, "kvbench: --trace must be 0 or 1, not %d\n", *trace)
		return 2
	case *seconds <= 0:
		fmt.Fprintf(os.Stderr, "kvbench: --seconds must be positive\n")
		return 2
	}

	pinRuntime()
	o := newOptions(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, false)
	o.traceRoot = *traceRoot
	o.workDir = filepath.Join(buildDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		return 1
	}
	defer os.RemoveAll(o.workDir)

	header, _ := json.Marshal(map[string]runHeader{"kvbench": {
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Host: currentHost(),
	}})
	fmt.Println(string(header))
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// newOptions configures a run of w; quick shrinks it to smoke-test
// scale. The caller sets the directories.
func newOptions(w workload, seed uint64, window time.Duration, trace, quick bool) options {
	o := options{w: w, seed: seed, keys: w.keys, warmup: 5 * time.Second, window: window, trace: trace,
		probeTime: time.Second, probeOps: 4096}
	if quick {
		o.keys, o.warmup, o.probeTime, o.probeOps = 2000, 200*time.Millisecond, 200*time.Millisecond, 1024
	}
	return o
}

// runHeader is the line every run prints before its result: what ran,
// and where.
type runHeader struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    int      `json:"trace"`
	Host     hostInfo `json:"host"`
}
