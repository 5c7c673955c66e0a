// Command kvbench runs the CS87 socket lab's scalability study against
// the hardened KV server: for each concurrent-client count it drives a
// fixed total number of SET/GET pairs through one lab text Client per
// worker, then reduces the timings to the same speedup/efficiency/Karp-Flatt table
// lifebench prints, plus throughput per run and the server-side latency
// histogram of the largest run.
//
// Usage:
//
//	kvbench -clients 1,2,4,8 -shards 16 -ops 2000
//	kvbench -clients 1,8 -shards 1        # the single-lock baseline
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
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/sockets"
)

func main() {
	clientsFlag := flag.String("clients", "1,2,4,8", "comma-separated concurrent client counts (must include 1)")
	shards := flag.Int("shards", 16, "store shards (1 = the single-lock server)")
	ops := flag.Int("ops", 2000, "total SET/GET pairs per run, split across clients")
	flag.Parse()

	var clients []int
	hasBaseline := false
	for _, part := range strings.Split(*clientsFlag, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || c < 1 {
			fmt.Fprintf(os.Stderr, "kvbench: bad client count %q\n", part)
			os.Exit(2)
		}
		if c == 1 {
			hasBaseline = true
		}
		clients = append(clients, c)
	}
	if !hasBaseline {
		fmt.Fprintln(os.Stderr, "kvbench: client counts must include 1 (the speedup baseline)")
		os.Exit(2)
	}

	// Ctrl-C cancels the sweep: the in-flight run drains (workers stop at
	// the next request boundary) and the table covers the finished runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("KV server scalability study: %d shards, %d SET/GET pairs per run, one lab Client per worker\n\n", *shards, *ops)
	var ms []metrics.Measurement
	var lastHist *metrics.Histogram
	interrupted := false
	for _, nc := range clients {
		elapsed, hist, err := run(ctx, *shards, nc, *ops)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				interrupted = true
				break
			}
			fmt.Fprintln(os.Stderr, "kvbench:", err)
			os.Exit(1)
		}
		ms = append(ms, metrics.Measurement{Workers: nc, Elapsed: elapsed})
		lastHist = hist
		opsSec := float64(2*(*ops)) / elapsed.Seconds()
		fmt.Printf("%3d clients: %12v  %10.0f ops/sec\n",
			nc, elapsed.Round(time.Microsecond), opsSec)
	}
	if interrupted {
		fmt.Println("\ninterrupted: reporting the runs that completed")
	}
	if len(ms) == 0 {
		fmt.Fprintln(os.Stderr, "kvbench: interrupted before any run completed")
		os.Exit(1)
	}
	tbl, err := metrics.BuildTable(ms)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(1)
	}
	fmt.Println()
	fmt.Print(tbl)
	fmt.Printf("\nAmdahl fit from largest run: serial fraction f = %.4f (limit %.1fx)\n",
		tbl.FitF, metrics.AmdahlLimit(tbl.FitF))
	fmt.Println("\nServer request latency, largest run:")
	fmt.Print(lastHist)
}

// run drives one measurement: nclients workers, each on its own lab
// Client, splitting ops SET/GET pairs against a fresh server. The
// context bounds every request; cancellation drains the workers at the
// next request boundary and surfaces the wrapped ctx error.
func run(ctx context.Context, shards, nclients, ops int) (time.Duration, *metrics.Histogram, error) {
	s, err := sockets.NewServerConfig("127.0.0.1:0", sockets.ServerConfig{Shards: shards})
	if err != nil {
		return 0, nil, err
	}
	defer s.Close()
	clients := make([]*sockets.Client, nclients)
	for i := range clients {
		c, err := sockets.DialCtx(ctx, s.Addr())
		if err != nil {
			return 0, nil, err
		}
		defer c.Close()
		clients[i] = c
	}

	per := ops / nclients
	if per == 0 {
		per = 1
	}
	errs := make(chan error, nclients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < nclients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("key-%d-%d", c, i%128)
				if err := clients[c].SetCtx(ctx, key, "value"); err != nil {
					errs <- err
					return
				}
				if _, _, err := clients[c].GetCtx(ctx, key); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return 0, nil, err
	}
	return elapsed, s.Latency(), nil
}
