package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is BENCHMARK.json: the workloads, and each metric with
// its unit and, for end-to-end metrics, its regression bound.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// savedRun is one run's saved standard output: its header and result.
type savedRun struct {
	file   string
	header runHeader
	result report
}

// parseRun reads one run's output: a header line, then anything, then
// the result as the last line.
func parseRun(r io.Reader) (runHeader, report, error) {
	var h runHeader
	var rep report
	var last []byte
	sawHeader := false
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var hdr map[string]json.RawMessage
		if !sawHeader && json.Unmarshal(line, &hdr) == nil && hdr["kvbench"] != nil {
			if err := json.Unmarshal(hdr["kvbench"], &h); err != nil {
				return h, rep, fmt.Errorf("header: %w", err)
			}
			sawHeader = true
		}
		last = append(last[:0], line...)
	}
	if err := sc.Err(); err != nil {
		return h, rep, err
	}
	if !sawHeader {
		return h, rep, errors.New("no kvbench header line")
	}
	if err := json.Unmarshal(last, &rep); err != nil || rep.Metrics == nil {
		return h, rep, fmt.Errorf("last line is not a result: %.80s", last)
	}
	return h, rep, nil
}

// loadRuns reads every file in dir as one run's output.
func loadRuns(dir string) ([]savedRun, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		h, rep, err := parseRun(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, savedRun{file: path, header: h, result: rep})
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", dir)
	}
	return runs, nil
}

// sideStats is one side's summary of one metric on one workload.
type sideStats struct {
	n              int
	median, spread float64
}

// summarize summarizes metric over the runs of workload with the given
// --trace setting.
func summarize(runs []savedRun, workload, metric string, trace int) sideStats {
	var xs []float64
	for _, r := range runs {
		if r.header.Workload != workload || r.header.Trace != trace {
			continue
		}
		if m, ok := r.result.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	if len(xs) == 0 {
		return sideStats{}
	}
	return sideStats{n: len(xs), median: median(xs), spread: spread(xs)}
}

// agreeMain compares two sets of saved runs metric by metric and
// workload by workload: each side's median against the other's, judged
// by the BENCHMARK.json bound. Per-layer metrics have no bound; where
// both sides hold traced runs, their medians and spreads are printed
// without a verdict. It exits 1 on any disagreement and 2 when the runs
// cannot be compared at all.
func agreeMain(args []string) int {
	fs := flag.NewFlagSet("kvbench agree", flag.ContinueOnError)
	boundsPath := fs.String("bounds", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: kvbench agree [--bounds BENCHMARK.json] RUNS_A RUNS_B")
		return 2
	}
	bf, err := loadBenchmark(*boundsPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench agree:", err)
		return 2
	}
	a, err := loadRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench agree:", err)
		return 2
	}
	b, err := loadRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench agree:", err)
		return 2
	}
	if msg := hostMismatch(append(append([]savedRun(nil), a...), b...)); msg != "" {
		fmt.Fprintln(os.Stderr, "kvbench agree: refusing to compare runs from different hosts:")
		fmt.Fprintln(os.Stderr, msg)
		return 2
	}
	fmt.Printf("host: %+v\n", a[0].host())
	row := func(w, m string, sa, sb sideStats, diff float64, bound, verdict string) {
		fmt.Printf("%-18s %-26s %14.6g %6.1f%% %14.6g %6.1f%% %+7.1f%% %6s  %s (n=%d/%d)\n",
			w, m, sa.median, 100*sa.spread, sb.median, 100*sb.spread, 100*diff, bound, verdict, sa.n, sb.n)
	}
	fmt.Printf("%-18s %-26s %14s %7s %14s %7s %8s %6s  %s\n",
		"workload", "metric", "median A", "IQR A", "median B", "IQR B", "B vs A", "bound", "verdict")
	disagree := 0
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			sa, sb := summarize(a, w.Name, m.Name, 0), summarize(b, w.Name, m.Name, 0)
			verdict := "agree"
			diff := (sb.median - sa.median) / sa.median
			switch {
			case sa.n == 0 || sb.n == 0:
				verdict = "MISSING"
				disagree++
			case math.IsNaN(diff) || math.Abs(diff) > m.Bound:
				verdict = "DISAGREE"
				disagree++
			}
			row(w.Name, m.Name, sa, sb, diff, fmt.Sprintf("%.0f%%", 100*m.Bound), verdict)
		}
	}
	for _, w := range bf.Workloads {
		for _, m := range bf.PerLayer {
			sa, sb := summarize(a, w.Name, m.Name, 1), summarize(b, w.Name, m.Name, 1)
			if sa.n > 0 && sb.n > 0 {
				row(w.Name, m.Name, sa, sb, (sb.median-sa.median)/sa.median, "-", "not gated")
			}
		}
	}
	if disagree > 0 {
		fmt.Printf("%d metric/workload pairs disagree\n", disagree)
		return 1
	}
	fmt.Println("all metric/workload pairs agree")
	return 0
}

func (r savedRun) host() hostInfo { h := r.header.Host; h.Commit = ""; return h }

// hostMismatch describes the hosts when runs come from more than one.
func hostMismatch(runs []savedRun) string {
	seen := make(map[hostInfo][]string)
	for _, r := range runs {
		seen[r.host()] = append(seen[r.host()], r.file)
	}
	if len(seen) == 1 {
		return ""
	}
	var lines []string
	for h, files := range seen {
		lines = append(lines, fmt.Sprintf("  %+v: %d runs, e.g. %s", h, len(files), files[0]))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
