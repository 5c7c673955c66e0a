// Command clusterbench measures the replicated KV cluster three ways:
//
//  1. Throughput scaling: quorum SET/GET pairs through rising client
//     counts, reduced to the speedup/efficiency/Karp-Flatt table every
//     other bench in this repo prints.
//  2. Availability: a node is killed mid-run; the bench reports the
//     fraction of quorum reads and writes that still succeed, the
//     hinted-handoff volume, and the hint replay on restart.
//  3. Elasticity: a node joins a loaded cluster; the ring-metadata
//     Moves() counter certifies that only ~K/n keys relocated.
//
// It ends with the cluster health report: per-node latency percentiles
// plus the handoff/quorum counter set, and a sample of the per-node
// pool's client-side counters.
//
// With -chaos it instead runs the seeded fault-injection scenarios from
// internal/chaos and checks the recorded history for consistency
// anomalies; any failure prints the offending seed and exits nonzero.
//
// Usage:
//
//	clusterbench -nodes 4 -replicas 3 -clients 1,2,4,8 -ops 2000 -keys 400
//	clusterbench -quick        # the CI smoke configuration
//	clusterbench -chaos -seed 7              # all scenarios under seed 7
//	clusterbench -chaos -scenario deadline-storm -seed 42
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func main() {
	nodes := flag.Int("nodes", 4, "initial node count")
	replicas := flag.Int("replicas", 3, "replicas per key")
	clientsFlag := flag.String("clients", "1,2,4,8", "comma-separated concurrent client counts (must include 1)")
	ops := flag.Int("ops", 2000, "total SET/GET pairs per throughput run")
	keys := flag.Int("keys", 400, "distinct keys loaded for the availability and join phases")
	quick := flag.Bool("quick", false, "CI smoke: small ops/keys and clients 1,2")
	chaosMode := flag.Bool("chaos", false, "run the seeded chaos scenarios instead of the benches")
	scenario := flag.String("scenario", "", "with -chaos: run only this scenario (default: all)")
	seed := flag.Int64("seed", 1, "with -chaos: schedule seed; a failing run prints the seed to replay")
	workloadFlag := flag.String("workload", "", "run the seeded workload generator instead of the benches: uniform or zipfian")
	qps := flag.Float64("qps", 0, "with -workload: total offered rate for the open-loop schedule (0 = closed loop)")
	theta := flag.Float64("theta", 0.99, "with -workload zipfian: zipfian exponent in (0,1)")
	cacheFlag := flag.Bool("cache", false, "with -workload: enable the cluster's hot-key lease cache")
	lease := flag.Duration("lease", 50*time.Millisecond, "with -cache: cache entry lease (the bounded staleness window)")
	maxPending := flag.Int("maxpending", 0, "with -workload: per-node admission bound (0 = no shedding)")
	durationFlag := flag.Duration("duration", 4*time.Second, "with -workload: measurement window")
	workers := flag.Int("workers", 16, "with -workload: concurrent client workers")
	readFrac := flag.Float64("readfrac", 0.95, "with -workload: fraction of ops that are reads")
	valueSize := flag.Int("valuesize", 64, "with -workload: value size in bytes (writes and preload)")
	wkeys := flag.Int("wkeys", 512, "with -workload: keyspace size")
	jsonPath := flag.String("json", "", "with -workload: append one JSON result line to this file")
	label := flag.String("label", "", "with -json: cell label for the aggregator (default: derived from dist/proto/cache/mode)")
	durable := flag.Bool("durable", false, "with -workload: give every node a write-ahead log (writes fsync before ack)")
	walBench := flag.Bool("walbench", false, "run the WAL group-commit microbench instead of the benches")
	walWriters := flag.Int("walwriters", 64, "with -walbench: concurrent append writers")
	walDur := flag.Duration("waldur", 2*time.Second, "with -walbench: measurement window per configuration")
	aeBench := flag.Bool("antientropy", false, "run the anti-entropy convergence bench: restart a memory-only node empty and time the Merkle sync that rebuilds it")
	aeKeys := flag.Int("aekeys", 10000, "with -antientropy: keys loaded (= the injected divergence)")
	recoveryBench := flag.Bool("recoverybench", false, "run the recovery benches: serial-vs-parallel WAL replay and streaming-vs-key-by-key re-replication after a wiped disk")
	replayRecords := flag.Int("replayrecords", 1_000_000, "with -recoverybench: records in the generated replay log")
	rrKeys := flag.Int("rrkeys", 100_000, "with -recoverybench: keys loaded before the disk-wipe re-replication phase")
	flag.Parse()
	if *chaosMode {
		os.Exit(runChaos(*scenario, *seed))
	}
	if *walBench {
		if *quick {
			*walDur = 500 * time.Millisecond
		}
		os.Exit(runWALBench(*walWriters, *walDur, *jsonPath))
	}
	if *aeBench {
		if *quick {
			*aeKeys = 1000
		}
		os.Exit(runAntiEntropy(*aeKeys, *valueSize, *seed, *jsonPath))
	}
	if *recoveryBench {
		if *quick {
			*replayRecords, *rrKeys = 50_000, 2_000
		}
		os.Exit(runRecoveryBench(*replayRecords, *rrKeys, *valueSize, *seed, *quick, *jsonPath))
	}
	if *workloadFlag != "" {
		dist, err := workload.ParseDist(*workloadFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clusterbench:", err)
			os.Exit(2)
		}
		if *quick {
			*durationFlag, *wkeys, *workers = 1200*time.Millisecond, 128, 4
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		os.Exit(runWorkload(ctx, workloadOpts{
			dist:       dist,
			theta:      *theta,
			keys:       *wkeys,
			readFrac:   *readFrac,
			valueSize:  *valueSize,
			duration:   *durationFlag,
			workers:    *workers,
			qps:        *qps,
			cache:      *cacheFlag,
			lease:      *lease,
			maxPending: *maxPending,
			nodes:      *nodes,
			replicas:   *replicas,
			seed:       *seed,
			durable:    *durable,
			jsonPath:   *jsonPath,
			label:      *label,
		}))
	}
	if *quick {
		*ops, *keys = 300, 120
		*clientsFlag = "1,2"
	}

	clients, err := parseClients(*clientsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		os.Exit(2)
	}

	// Ctrl-C cancels the sweep: quorum ops in flight abort (laggard
	// replica requests are canceled), the cluster drains through Close,
	// and the tables cover whatever completed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("cluster scalability study: %d nodes, %d replicas, quorum W=R=%d, %d SET/GET pairs per run\n\n",
		*nodes, *replicas, *replicas/2+1, *ops)
	var ms []metrics.Measurement
	interrupted := false
	for _, nc := range clients {
		elapsed, err := throughputRun(ctx, *nodes, *replicas, nc, *ops)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				interrupted = true
				break
			}
			fmt.Fprintln(os.Stderr, "clusterbench:", err)
			os.Exit(1)
		}
		ms = append(ms, metrics.Measurement{Workers: nc, Elapsed: elapsed})
		fmt.Printf("%3d clients: %12v  %10.0f quorum ops/sec\n",
			nc, elapsed.Round(time.Microsecond), float64(2*(*ops))/elapsed.Seconds())
	}
	if interrupted {
		fmt.Println("\ninterrupted: reporting the runs that completed")
	}
	if len(ms) == 0 {
		fmt.Fprintln(os.Stderr, "clusterbench: interrupted before any run completed")
		os.Exit(1)
	}
	tbl, err := metrics.BuildTable(ms)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		os.Exit(1)
	}
	fmt.Println()
	fmt.Print(tbl)

	if interrupted {
		return // the failure/elasticity phases need an uninterrupted cluster
	}
	fmt.Println()
	if err := availabilityAndJoin(ctx, *nodes, *replicas, *keys); err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		os.Exit(1)
	}
}

func parseClients(s string) ([]int, error) {
	var out []int
	baseline := false
	for _, part := range strings.Split(s, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || c < 1 {
			return nil, fmt.Errorf("bad client count %q", part)
		}
		if c == 1 {
			baseline = true
		}
		out = append(out, c)
	}
	if !baseline {
		return nil, fmt.Errorf("client counts must include 1 (the speedup baseline)")
	}
	return out, nil
}

func newCluster(nodes, replicas int) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{
		Nodes:             nodes,
		Replicas:          replicas,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  150 * time.Millisecond,
		PoolTimeout:       500 * time.Millisecond,
	})
}

// throughputRun drives one measurement: nclients goroutines splitting
// ops quorum SET/GET pairs against a fresh cluster. Cancellation drains
// the workers at the next quorum-op boundary and surfaces the wrapped
// ctx error.
func throughputRun(ctx context.Context, nodes, replicas, nclients, ops int) (time.Duration, error) {
	c, err := newCluster(nodes, replicas)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	per := ops / nclients
	if per == 0 {
		per = 1
	}
	errs := make(chan error, nclients)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < nclients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("key-%d-%d", w, i%128)
				if err := c.PutCtx(ctx, key, "value"); err != nil {
					errs <- err
					return
				}
				if _, _, err := c.GetCtx(ctx, key); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return 0, err
	}
	return elapsed, nil
}

// availabilityAndJoin runs the failure and elasticity phases on one
// loaded cluster and prints the health report. An interrupt mid-phase
// drains the phase in flight and still prints the report, so the
// counters accumulated before Ctrl-C are not lost.
func availabilityAndJoin(ctx context.Context, nodes, replicas, keys int) error {
	c, err := newCluster(nodes, replicas)
	if err != nil {
		return err
	}
	defer c.Close()
	phaseErr := failureAndElasticityPhases(ctx, c, nodes, replicas, keys)
	if phaseErr != nil && !errors.Is(phaseErr, context.Canceled) {
		return phaseErr
	}
	if phaseErr != nil {
		fmt.Println("\ninterrupted: the health report covers the phases that completed")
	}
	fmt.Println("cluster health report:")
	fmt.Print(c.Report())
	fmt.Println("\nclient pool counters (summed across nodes):")
	fmt.Print(c.PoolCounters())
	return nil
}

func failureAndElasticityPhases(ctx context.Context, c *cluster.Cluster, nodes, replicas, keys int) error {
	for i := 0; i < keys; i++ {
		if err := c.PutCtx(ctx, fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)); err != nil {
			return err
		}
	}

	victim := c.Nodes()[1]
	fmt.Printf("availability: killing %s with %d keys loaded (%d replicas, quorum reads need %d)\n",
		victim, keys, replicas, replicas/2+1)
	if err := c.Kill(victim); err != nil {
		return err
	}
	c.Probe()
	var readOK, writeOK atomic.Int64
	for i := 0; i < keys; i++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("clusterbench: availability phase canceled: %w", err)
		}
		if v, ok, err := c.GetCtx(ctx, fmt.Sprintf("key-%d", i)); err == nil && ok && v == fmt.Sprintf("val-%d", i) {
			readOK.Add(1)
		}
		if err := c.PutCtx(ctx, fmt.Sprintf("key-%d", i), fmt.Sprintf("val2-%d", i)); err == nil {
			writeOK.Add(1)
		}
	}
	fmt.Printf("  quorum reads  with 1 of %d replicas down: %d/%d (%.1f%%)\n",
		replicas, readOK.Load(), keys, 100*float64(readOK.Load())/float64(keys))
	fmt.Printf("  quorum writes with 1 of %d replicas down: %d/%d (%.1f%%)\n",
		replicas, writeOK.Load(), keys, 100*float64(writeOK.Load())/float64(keys))
	hinted, _ := c.Counters().Get("cluster.hinted-writes")
	fmt.Printf("  hinted handoffs parked for %s: %.0f\n", victim, hinted)
	if err := c.Restart(victim); err != nil {
		return err
	}
	replayed, _ := c.Counters().Get("cluster.hints-replayed")
	fmt.Printf("  hints replayed on restart: %.0f\n\n", replayed)

	if err := ctx.Err(); err != nil {
		return fmt.Errorf("clusterbench: canceled before the elasticity phase: %w", err)
	}
	before := c.Moves()
	if err := c.Join("joiner"); err != nil {
		return err
	}
	moved := c.Moves() - before
	fmt.Printf("elasticity: joining a %dth node moved %d of %d keys (~K/n = %d expected)\n\n",
		nodes+1, moved, keys, keys/(nodes+1))
	return nil
}
