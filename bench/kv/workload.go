package main

import "time"

// workload is one traffic mix. Each exists to load a different set of
// the store's layers; README.md records why, and which metric each
// layer should move on it.
type workload struct {
	name      string
	keys      int
	valueSize int
	writeFrac float64
	zipf      bool // YCSB zipfian θ=0.99; otherwise uniform
	durable   bool // every node logs to a WAL and fsyncs before acking
	// maxPending is each node's admission bound. Any non-zero value
	// moves the server's GETs off the inline path onto a goroutine per
	// request; 1024 is high enough that nothing is shed.
	maxPending int
	// rate is the open-loop arrival rate in ops/s; 0 runs a closed loop.
	rate float64
}

// workloads are the benchmark's traffic mixes; the names are the ones
// BENCHMARK.json lists. The key spaces are sized so that three set-ups,
// a warm-up, the window, the checks and the fault phase of one run fit
// the benchmark's time budget on a 2-vCPU host (see README.md).
var workloads = []workload{
	// The read path dominates: quorum fan-out, inline binary GET, wire
	// and version decode. The zipfian head fits in CPU cache.
	{name: "read95-zipf", keys: 20000, valueSize: 256, writeFrac: 0.05, zipf: true},
	// Writes dominate: the client's exclusive topology lock, SETV on the
	// durable goroutine path, WAL group commit and Merkle apply, then
	// WAL replay and SYNCWAL streaming in the fault phase.
	{name: "write50-durable", keys: 10000, valueSize: 256, writeFrac: 0.5, durable: true},
	// Latency at a fixed arrival rate. The rate is 22% of this traffic's
	// closed-loop capacity (18.1k ops/s with 2 clients on a 2-vCPU
	// Xeon): every GC cycle's mark phase takes one of the two CPUs for
	// 40-120 ms, and at 30% load or more the queue it leaves sometimes
	// overflows the 256 ops in flight. 20k 1 KiB values on 3 replicas
	// (≈60 MB) are far beyond the CPUs' own caches.
	{name: "open90-uniform-1k", keys: 20000, valueSize: 1024, writeFrac: 0.1, maxPending: 1024, rate: 4000},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Fixed settings every workload shares.
const (
	// opDeadline bounds every store call; an op past it counts as failed.
	opDeadline = 2 * time.Second
	// setups is how many times a run builds and preloads a cluster;
	// setup_s is their median and the last one serves the traffic.
	setups = 3
	// loaders is the preload's concurrency (set-up only, not measured load).
	loaders = 8
	// openInFlight caps the open loop's ops in flight; an op released
	// over the cap is dropped and counts as failed.
	openInFlight = 256
	// openWriteGap spaces two open-loop writes to one key, so they can
	// never be in flight together (see generate).
	openWriteGap = 5 * time.Second
	// closedStreamLen is each closed-loop client's op stream; clients
	// cycle through it, so throughput never exhausts the input.
	closedStreamLen = 1 << 18
	// traceSlice is how long the traced run keeps spans on, then off,
	// alternately, to measure their cost on the same traffic.
	traceSlice = 500 * time.Millisecond
)
