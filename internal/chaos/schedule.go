// Package chaos is a seeded fault-injection harness and history-based
// consistency checker for the replicated KV cluster (internal/cluster).
//
// One int64 seed drives everything random in a run: which nodes die and
// when, how long fault windows last, and every operation each client
// worker issues (kind, key, value, pacing). The fault plan and the
// per-worker operation streams are pure functions of (Spec, seed), so a
// failing seed replays byte-for-byte — the same kills at the same
// offsets, the same workload prefix — while the checker re-validates
// whatever history the replay produces. Real TCP and real goroutine
// scheduling mean the *interleaving* still varies between runs; the
// checker is sound for any interleaving, so a seed that ever produced
// an anomaly is a seed worth keeping.
//
// The harness (harness.go) wires the plan into the cluster's fault
// hooks, runs the workload on a sched.Pool, waits out recovery, and
// hands the recorded history to the checker (check.go). The named
// scenarios (scenarios.go) cover the failure modes the cluster claims
// to survive.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/dfs"
	"repro/internal/workload"
)

// FaultKind labels one fault in a schedule.
type FaultKind string

// The fault kinds a schedule can contain.
const (
	// FaultKill crash-stops Node at At (cluster.Kill: connections cut,
	// store lost). A later FaultRestart brings it back empty (or with
	// its own log, on a durable cluster), and its catch-up copies from
	// its live peers what it replicates.
	FaultKill FaultKind = "kill"
	// FaultRestart restarts a killed Node at At.
	FaultRestart FaultKind = "restart"
	// FaultSlow stalls Node's server-side handling of requests matching
	// Verb by Delay for the window [At, At+For] — a slow replica, not a
	// dead one (PING is unaffected unless Verb matches it).
	FaultSlow FaultKind = "slow"
	// FaultBlackout stalls Node's PING responses for [At, At+For]. The
	// failure detector declares the node down even though it is alive
	// and serving — the classic false death. Quorums route around it
	// (each write it misses counts against that write's quorum), and its
	// catch-up on the up transition copies back what it missed.
	FaultBlackout FaultKind = "blackout"
	// FaultConnDrop kills the client-side connection on first attempts
	// to Node — every DropEvery-th request in [At, At+For] fails its
	// first wire attempt and takes the retry/backoff path.
	FaultConnDrop FaultKind = "conn-drop"
	// FaultLatency injects a client-side Delay before every wire attempt
	// to Node in [At, At+For]; the spike counts against the attempt's
	// deadline budget like real network delay.
	FaultLatency FaultKind = "latency"
	// FaultDeadlineStorm shrinks every worker's per-op context deadline
	// to Delay for [At, At+For], forcing mid-quorum cancellations.
	FaultDeadlineStorm FaultKind = "deadline-storm"
	// FaultJoin adds Node to the ring at At, migrating its key arcs
	// while the workload (and any overlapping faults) keep running.
	FaultJoin FaultKind = "join"
	// FaultCorrupt flips one byte inside a sealed WAL segment of the
	// (live, durable) Node at At — silent disk corruption. The node's
	// background scrub must detect it and surface an EventWALCorrupt;
	// the in-memory store is untouched, so the node keeps serving.
	FaultCorrupt FaultKind = "corrupt-wal"
	// FaultRestartCorrupt restarts a killed Node whose log was corrupted
	// by an earlier FaultCorrupt. The restart MUST fail — recovery
	// refusing to serve data it cannot verify is the contract — and the
	// harness then wipes the damaged log and restarts the node empty, so
	// re-replication rebuilds it from its peers. A restart that succeeds
	// on a corrupt log is recorded as a fault error and fails the run.
	FaultRestartCorrupt FaultKind = "restart-corrupt"
)

// Fault is one scheduled fault. At is the offset from harness start;
// For is the window length for windowed kinds (zero for point events
// like kill/restart/join).
type Fault struct {
	At        time.Duration
	For       time.Duration
	Kind      FaultKind
	Node      string
	Verb      string        // FaultSlow: request prefix to stall
	Delay     time.Duration // slow/latency stall; deadline-storm op deadline
	DropEvery int           // conn-drop: drop every n-th request's first attempt
}

func (f Fault) String() string {
	s := fmt.Sprintf("%6s +%-6s %-14s", f.At.Round(time.Millisecond), f.For.Round(time.Millisecond), f.Kind)
	if f.Node != "" {
		s += " " + f.Node
	}
	if f.Verb != "" {
		s += " verb=" + f.Verb
	}
	if f.Delay > 0 {
		s += fmt.Sprintf(" delay=%s", f.Delay)
	}
	if f.DropEvery > 0 {
		s += fmt.Sprintf(" every=%d", f.DropEvery)
	}
	return s
}

// FaultPlan expands spec's fault plan for a seed: a deterministic,
// At-sorted schedule. The same (spec, seed) always yields the same
// plan.
func FaultPlan(spec Spec, seed int64) []Fault {
	if spec.Plan == nil {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]string, spec.Nodes)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("node%d", i)
	}
	plan := spec.Plan(rng, nodes)
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].At < plan[j].At })
	return plan
}

// OpPlan is one planned workload operation: what to issue and how long
// to pause before issuing it.
type OpPlan struct {
	Kind  OpKind
	Key   string
	Value string // puts only; unique across the run
	Gap   time.Duration
}

// opStream returns the deterministic operation generator for one
// worker. Successive calls yield the worker's planned ops; the harness
// executes the prefix that fits in the workload window. Values are
// "w<worker>-<n>" — unique across the run, which is what lets the
// checker match any read back to the one write that produced its value.
func opStream(spec Spec, seed int64, worker int) func() OpPlan {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(worker)*7919 + 1))
	// ZipfTheta > 0 skews key picks: Sample is a pure function of the
	// worker's seeded uniform draws, so the stream stays a deterministic
	// function of (spec, seed, worker) — same property as uniform.
	var zipf *workload.Zipf
	if spec.ZipfTheta > 0 {
		if z, err := workload.NewZipf(spec.Keys, spec.ZipfTheta); err == nil {
			zipf = z
		}
	}
	n := 0
	return func() OpPlan {
		var keyIdx int
		if zipf != nil {
			keyIdx = zipf.Sample(rng.Float64())
		} else {
			keyIdx = rng.Intn(spec.Keys)
		}
		p := OpPlan{
			Key: fmt.Sprintf("k%02d", keyIdx),
			Gap: spec.OpGapMin + time.Duration(rng.Int63n(int64(spec.OpGapMax-spec.OpGapMin)+1)),
		}
		switch r := rng.Float64(); {
		case r < 0.45:
			p.Kind = OpPut
			p.Value = fmt.Sprintf("w%d-%d", worker, n)
		case r < 0.55:
			p.Kind = OpDel
		default:
			p.Kind = OpGet
		}
		n++
		return p
	}
}

// PreviewOps returns the first n planned operations of a worker's
// stream — the determinism tests' window into the workload.
func PreviewOps(spec Spec, seed int64, worker, n int) []OpPlan {
	spec = spec.withDefaults()
	next := opStream(spec, seed, worker)
	out := make([]OpPlan, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

// ScheduleString renders the full derived schedule — fault plan plus a
// prefix of each worker's op stream — as text. Two runs of the same
// (spec, seed) must render byte-identically; the determinism test
// asserts exactly that.
func ScheduleString(spec Spec, seed int64) string {
	spec = spec.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s seed %d\nfaults:\n", spec.Name, seed)
	for _, f := range FaultPlan(spec, seed) {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	for w := 0; w < spec.Workers; w++ {
		fmt.Fprintf(&b, "worker %d:", w)
		for _, p := range PreviewOps(spec, seed, w, 12) {
			fmt.Fprintf(&b, " %s(%s)", p.Kind, p.Key)
		}
		b.WriteString(" ...\n")
	}
	return b.String()
}

// DFSScenario derives a deterministic scripted scenario for the
// message-passing primary/backup store (internal/dfs) from the same
// seed space the TCP harness uses — the two fault-tolerance capstones
// share one replay vocabulary. The script tracks a model map so every
// get carries the value the store must return, and it crashes the
// primary (at most replicas-1 times) at seed-chosen points.
func DFSScenario(seed int64, ops, replicas int) dfs.Scenario {
	rng := rand.New(rand.NewSource(seed ^ 0x5f3759df))
	model := map[string]string{}
	keys := []string{"alpha", "beta", "gamma", "delta"}
	crashes := replicas - 1
	if crashes > 2 {
		crashes = 2
	}
	var sc dfs.Scenario
	for i := 0; i < ops; i++ {
		k := keys[rng.Intn(len(keys))]
		switch r := rng.Float64(); {
		case crashes > 0 && r >= 0.93:
			crashes--
			sc = append(sc, "crash")
		case r < 0.5:
			v := fmt.Sprintf("v%d", i)
			model[k] = v
			sc = append(sc, fmt.Sprintf("put %s %s", k, v))
		case r < 0.8 && model[k] != "":
			sc = append(sc, fmt.Sprintf("get %s %s", k, model[k]))
		default:
			sc = append(sc, fmt.Sprintf("getmissing missing-%d", i))
		}
	}
	return sc
}
