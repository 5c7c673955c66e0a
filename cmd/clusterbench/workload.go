package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sockets"
	"repro/internal/workload"
)

// workloadOpts is one workload-mode run: a distribution, a cache
// setting, and either a closed loop (qps 0: every worker issues
// its next op the moment the previous one returns) or an open loop
// (workers dispatch on a fixed arrival schedule at the offered rate and
// record how far they fall behind).
type workloadOpts struct {
	dist       workload.Dist
	theta      float64
	keys       int
	readFrac   float64
	valueSize  int
	duration   time.Duration
	workers    int
	qps        float64 // total offered rate across workers; 0 = closed loop
	cache      bool
	lease      time.Duration
	maxPending int
	nodes      int
	replicas   int
	seed       int64
	durable    bool
	jsonPath   string
	label      string
}

// workloadResult is the JSON line one run appends with -json — the raw
// material scripts/perf aggregates into BENCH_<date>.json.
type workloadResult struct {
	Label      string  `json:"label,omitempty"`
	Dist       string  `json:"dist"`
	Proto      string  `json:"proto"`
	Cache      bool    `json:"cache"`
	Durable    bool    `json:"durable,omitempty"`
	Mode       string  `json:"mode"` // "closed" or "open"
	OfferedQPS float64 `json:"offered_qps,omitempty"`
	Theta      float64 `json:"theta"`
	Keys       int     `json:"keys"`
	Workers    int     `json:"workers"`
	ReadFrac   float64 `json:"read_frac"`
	ValueSize  int     `json:"value_size"`
	MaxPending int     `json:"max_pending"`
	Seed       int64   `json:"seed"`
	DurationS  float64 `json:"duration_s"`

	Ops        int64   `json:"ops"`
	Errors     int64   `json:"errors"`
	Overloads  int64   `json:"overloads"`
	Throughput float64 `json:"throughput_ops_s"` // attempts/s
	Goodput    float64 `json:"goodput_ops_s"`    // successes/s

	ReadP50Ms   float64 `json:"read_p50_ms"`
	ReadP99Ms   float64 `json:"read_p99_ms"`
	ReadP999Ms  float64 `json:"read_p999_ms"`
	WriteP50Ms  float64 `json:"write_p50_ms"`
	WriteP99Ms  float64 `json:"write_p99_ms"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	Sheds       int64   `json:"sheds"`
	LagMeanMs   float64 `json:"lag_mean_ms"`
	LagMaxMs    float64 `json:"lag_max_ms"`
}

func (r workloadResult) cell() string {
	if r.Label != "" {
		return r.Label
	}
	cacheStr := "nocache"
	if r.Cache {
		cacheStr = "cache"
	}
	return fmt.Sprintf("%s-%s-%s-%s", r.Dist, r.Proto, cacheStr, r.Mode)
}

const workloadOpTimeout = 2 * time.Second

// runWorkload executes one workload-mode run and returns the process
// exit code.
func runWorkload(ctx context.Context, o workloadOpts) int {
	wl, err := workload.New(workload.Config{
		Keys:     o.keys,
		Dist:     o.dist,
		Theta:    o.theta,
		ReadFrac: o.readFrac,
		ValueMin: o.valueSize,
		ValueMax: o.valueSize,
		Seed:     o.seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		return 2
	}

	// Failure detection is deliberately slack here: workload mode measures
	// steady-state serving, and on a loaded single-CPU host a GC pause can
	// exceed an aggressive heartbeat timeout and trigger a spurious
	// failover mid-benchmark, which would corrupt the measurement.
	c, err := cluster.New(cluster.Config{
		Nodes:             o.nodes,
		Replicas:          o.replicas,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  600 * time.Millisecond,
		PoolTimeout:       500 * time.Millisecond,
		HotKeyCache:       o.cache,
		CacheLease:        o.lease,
		MaxPending:        o.maxPending,
		Durable:           o.durable,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		return 1
	}
	defer c.Close()

	// Preload the whole keyspace so reads never miss on cold state, with
	// values of the configured size: read cost scales with the stored
	// value, so tiny preload values would understate the measured load
	// until the write mix replaced them.
	initSize := o.valueSize
	if initSize <= 0 {
		initSize = 64
	}
	initVal := strings.Repeat("x", initSize)
	for _, key := range wl.Keys() {
		if err := c.PutCtx(ctx, key, initVal); err != nil {
			fmt.Fprintln(os.Stderr, "clusterbench: preload:", err)
			return 1
		}
	}

	mode := "closed"
	if o.qps > 0 {
		mode = "open"
	}
	fmt.Printf("workload: %s keys=%d theta=%.2f readfrac=%.2f, %d workers, %s loop",
		o.dist, o.keys, o.theta, o.readFrac, o.workers, mode)
	if o.qps > 0 {
		fmt.Printf(" @ %.0f qps offered", o.qps)
	}
	fmt.Printf(", cache=%v, durable=%v", o.cache, o.durable)
	if o.cache {
		fmt.Printf(" (lease %s)", o.lease)
	}
	if o.maxPending > 0 {
		fmt.Printf(", maxpending=%d", o.maxPending)
	}
	fmt.Printf(", %s\n", o.duration)

	readHist := metrics.NewHistogram()
	writeHist := metrics.NewHistogram()
	var ops, errs, overloads atomic.Int64
	lag := workload.NewLagGauge()

	runCtx, cancel := context.WithTimeout(ctx, o.duration)
	defer cancel()
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := wl.Gen(w)
			var pacer *workload.Pacer
			if o.qps > 0 {
				p, perr := workload.NewPacer(o.qps/float64(o.workers), lag)
				if perr != nil {
					return
				}
				pacer = p
			}
			for runCtx.Err() == nil {
				if pacer != nil {
					if pacer.Wait(runCtx) != nil {
						return
					}
				}
				op := gen.Next()
				opCtx, opCancel := context.WithTimeout(runCtx, workloadOpTimeout)
				opStart := time.Now()
				var err error
				switch op.Kind {
				case workload.OpWrite:
					err = c.PutCtx(opCtx, op.Key, op.Value)
				case workload.OpDelete:
					err = c.DelCtx(opCtx, op.Key)
				default:
					_, _, err = c.GetCtx(opCtx, op.Key)
				}
				d := time.Since(opStart)
				opCancel()
				if runCtx.Err() != nil && err != nil {
					return // the run window closed mid-op; not a sample
				}
				ops.Add(1)
				if err != nil {
					errs.Add(1)
					// The quorum layer reports its own failure shape, so also
					// classify by message when the typed error didn't survive
					// the wrapping.
					if errors.Is(err, sockets.ErrOverload) || strings.Contains(err.Error(), "overload") {
						overloads.Add(1)
					}
					continue
				}
				if op.Kind == workload.OpRead {
					readHist.Observe(d)
				} else {
					writeHist.Observe(d)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := ops.Load()
	good := total - errs.Load()
	ls := lag.Snapshot()
	res := workloadResult{
		Label:      o.label,
		Dist:       o.dist.String(),
		Proto:      "binary", // the only inter-node transport; keeps derived cell labels matching earlier BENCH files
		Cache:      o.cache,
		Durable:    o.durable,
		Mode:       mode,
		OfferedQPS: o.qps,
		Theta:      o.theta,
		Keys:       o.keys,
		Workers:    o.workers,
		ReadFrac:   o.readFrac,
		ValueSize:  o.valueSize,
		MaxPending: o.maxPending,
		Seed:       o.seed,
		DurationS:  elapsed.Seconds(),
		Ops:        total,
		Errors:     errs.Load(),
		Overloads:  overloads.Load(),
		Throughput: float64(total) / elapsed.Seconds(),
		Goodput:    float64(good) / elapsed.Seconds(),
		ReadP50Ms:  durMs(readHist.Quantile(0.50)),
		ReadP99Ms:  durMs(readHist.Quantile(0.99)),
		ReadP999Ms: durMs(readHist.Quantile(0.999)),
		WriteP50Ms: durMs(writeHist.Quantile(0.50)),
		WriteP99Ms: durMs(writeHist.Quantile(0.99)),

		CacheHits:   c.CacheHits(),
		CacheMisses: c.CacheMisses(),
		Sheds:       c.Sheds(),
		LagMeanMs:   durMs(ls.Mean),
		LagMaxMs:    durMs(ls.Max),
	}

	fmt.Printf("\n%8d ops in %v: %.0f ops/s offered-side, %.0f ops/s goodput (%d errors, %d overload)\n",
		res.Ops, elapsed.Round(time.Millisecond), res.Throughput, res.Goodput, res.Errors, res.Overloads)
	fmt.Printf("  reads : n=%d p50=%v p99=%v p999=%v\n",
		readHist.Count(), readHist.Quantile(0.50).Round(time.Microsecond),
		readHist.Quantile(0.99).Round(time.Microsecond), readHist.Quantile(0.999).Round(time.Microsecond))
	fmt.Printf("  writes: n=%d p50=%v p99=%v\n",
		writeHist.Count(), writeHist.Quantile(0.50).Round(time.Microsecond), writeHist.Quantile(0.99).Round(time.Microsecond))
	if o.cache {
		hitRate := 0.0
		if hm := res.CacheHits + res.CacheMisses; hm > 0 {
			hitRate = float64(res.CacheHits) / float64(hm)
		}
		fmt.Printf("  cache : %d hits / %d misses (%.1f%% hit rate)\n", res.CacheHits, res.CacheMisses, 100*hitRate)
	}
	if o.maxPending > 0 {
		fmt.Printf("  sheds : %d\n", res.Sheds)
	}
	if o.qps > 0 {
		fmt.Printf("  lag   : %d dispatches, mean %v, max %v", ls.Dispatches, ls.Mean.Round(time.Microsecond), ls.Max.Round(time.Microsecond))
		if ls.Mean > 5*time.Millisecond {
			fmt.Printf("  [WARN: load generator fell behind; offered rate under-delivered]")
		}
		fmt.Println()
	}

	if o.jsonPath != "" {
		if err := appendJSON(o.jsonPath, res); err != nil {
			fmt.Fprintln(os.Stderr, "clusterbench:", err)
			return 1
		}
		fmt.Printf("  appended cell %q to %s\n", res.cell(), o.jsonPath)
	}
	return 0
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// appendJSON appends one result as a JSON line (the file accumulates a
// run per line; the aggregator groups them by cell).
func appendJSON(path string, res any) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(append(b, '\n'))
	return err
}
