package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// Spec describes one chaos scenario: the cluster shape, the workload,
// and the fault plan. Zero fields take the defaults noted inline.
type Spec struct {
	Name string

	// Cluster shape (cluster.Config mirrors).
	Nodes              int // default 5
	Replicas           int // default 3
	WriteQuorum        int // default Replicas/2+1
	ReadQuorum         int // default Replicas/2+1
	AllowUnsafeQuorums bool

	HeartbeatInterval time.Duration // default 20ms
	HeartbeatTimeout  time.Duration // default 100ms
	PoolTimeout       time.Duration // default 250ms
	PoolAttempts      int           // default 2
	DrainTimeout      time.Duration // default 50ms

	// Workload.
	Workers   int           // concurrent client workers (default 4)
	Keys      int           // key-space size (default 24)
	Duration  time.Duration // workload window (default 1.2s)
	OpTimeout time.Duration // per-op ctx deadline outside storms (default 1s)
	OpGapMin  time.Duration // pacing between ops (defaults 2ms..8ms)
	OpGapMax  time.Duration
	// ZipfTheta > 0 skews the workers' key picks zipfian (YCSB theta in
	// (0,1)); 0 keeps the uniform key distribution.
	ZipfTheta float64

	// HotKeyCache enables the cluster's client-side lease cache; the
	// history is then checked with CacheLease as the bounded-staleness
	// allowance instead of the strict LWW contract.
	HotKeyCache bool
	CacheLease  time.Duration // default 50ms when HotKeyCache is set

	// Durable gives every node a write-ahead log: Kill becomes kill -9
	// (Server.Crash — no drain, unsynced suffix discarded) and Restart
	// recovers the node's acked writes from its own log. This is what
	// lets a scenario kill ALL replicas of a key and still demand
	// nothing acked is lost — without it, a restarted node comes back
	// empty and its catch-up can only copy from live peers, and a total
	// outage leaves none.
	Durable bool
	// WALSegmentBytes shrinks durable nodes' log segments so sealed
	// segments — the corruption targets and scrub units — appear within
	// a chaos run's short window. 0 keeps the cluster default.
	WALSegmentBytes int64
	// WALScrubInterval > 0 runs each durable node's background segment
	// scrub at this period for the whole scenario.
	WALScrubInterval time.Duration
	// SyncStreamThreshold passes through to the cluster: the divergence
	// ratio at which anti-entropy re-replicates by WAL streaming instead
	// of key-by-key span repair. 0 keeps the cluster default (0.25).
	SyncStreamThreshold float64
	// RequireScrubEvent fails the run unless some node's scrub surfaced
	// an EventWALCorrupt — the proof that injected disk corruption was
	// detected in the background, not discovered at the next crash. It
	// also holds the kill of a node whose log a FaultCorrupt damaged
	// until that node's scrub has reported it, for at most awaitBound:
	// a kill that comes first would leave the scrub nothing to find.
	RequireScrubEvent bool

	// AntiEntropyInterval > 0 runs the cluster's background Merkle sync
	// loop at this period for the whole scenario, so repair races live
	// traffic and faults instead of only running in the epilogue.
	AntiEntropyInterval time.Duration
	// RequireConvergence adds a convergence gate after recovery: the
	// harness drives SyncNow until a full pass repairs nothing (every
	// live pair's Merkle trees match — replicas byte-identical) and
	// fails the run if repeated passes never quiet down, or if any live
	// node's digest then disagrees with a digest rebuilt from its own
	// store (cluster.CheckDigests).
	RequireConvergence bool

	// Plan builds the fault schedule from the seeded rng and the
	// initial node names. nil means a fault-free run.
	Plan func(rng *rand.Rand, nodes []string) []Fault
}

func (s Spec) withDefaults() Spec {
	if s.Nodes <= 0 {
		s.Nodes = 5
	}
	if s.Replicas <= 0 {
		s.Replicas = 3
	}
	if s.HeartbeatInterval <= 0 {
		s.HeartbeatInterval = 20 * time.Millisecond
	}
	if s.HeartbeatTimeout <= 0 {
		s.HeartbeatTimeout = 100 * time.Millisecond
	}
	if s.PoolTimeout <= 0 {
		s.PoolTimeout = 250 * time.Millisecond
	}
	if s.PoolAttempts <= 0 {
		s.PoolAttempts = 2
	}
	if s.DrainTimeout <= 0 {
		s.DrainTimeout = 50 * time.Millisecond
	}
	if s.Workers <= 0 {
		s.Workers = 4
	}
	if s.Keys <= 0 {
		s.Keys = 24
	}
	if s.Duration <= 0 {
		s.Duration = 1200 * time.Millisecond
	}
	if s.OpTimeout <= 0 {
		s.OpTimeout = time.Second
	}
	if s.OpGapMin <= 0 {
		s.OpGapMin = 2 * time.Millisecond
	}
	if s.OpGapMax < s.OpGapMin {
		s.OpGapMax = s.OpGapMin + 6*time.Millisecond
	}
	if s.HotKeyCache && s.CacheLease <= 0 {
		s.CacheLease = 50 * time.Millisecond
	}
	return s
}

// Report is the outcome of one harness run.
type Report struct {
	Scenario string
	Seed     int64
	Plan     []Fault
	Result   CheckResult
	Events   []cluster.Event
	// FaultErrors records fault applications the cluster rejected
	// (e.g. restarting a node that was not killed) — a scenario-design
	// bug, not a cluster bug.
	FaultErrors []string
	// Notes records what the harness did on its own to make a fault
	// hold, such as which WAL file a corruption landed in.
	Notes []string
	// Recovery is how long after the last fault cleared the cluster
	// took to serve a clean full-key sweep again.
	Recovery time.Duration
	// SyncRepairs counts replica copies the post-recovery anti-entropy
	// convergence gate rewrote (RequireConvergence scenarios only).
	SyncRepairs int
	// ConvergeFailure is set when the spec demanded convergence and
	// repeated sync passes never reached a quiet (zero-repair) round.
	ConvergeFailure string
	Wall            time.Duration
	Counters        *metrics.CounterSet
}

// Failed reports whether the run violated the contract: any anomaly,
// any unexcused error, a fault the scenario could not apply, or a
// demanded convergence that never settled.
func (r *Report) Failed() bool {
	return len(r.Result.Anomalies) > 0 || r.Result.Errors.Unexcused > 0 ||
		len(r.FaultErrors) > 0 || r.ConvergeFailure != ""
}

// String renders the report, including the replay line a failing run
// should be reproduced with.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos %s seed=%d: %s\n", r.Scenario, r.Seed, r.Result.Summary())
	fmt.Fprintf(&b, "recovery %s, wall %s, %d cluster events\n",
		r.Recovery.Round(time.Millisecond), r.Wall.Round(time.Millisecond), len(r.Events))
	for i, a := range r.Result.Anomalies {
		if i >= 10 {
			fmt.Fprintf(&b, "  ... %d more anomalies\n", len(r.Result.Anomalies)-10)
			break
		}
		fmt.Fprintf(&b, "  anomaly: %s\n", a)
	}
	for _, fe := range r.FaultErrors {
		fmt.Fprintf(&b, "  fault error: %s\n", fe)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	if r.SyncRepairs > 0 {
		fmt.Fprintf(&b, "convergence: anti-entropy rewrote %d replica copies\n", r.SyncRepairs)
	}
	if r.ConvergeFailure != "" {
		fmt.Fprintf(&b, "  convergence failure: %s\n", r.ConvergeFailure)
	}
	if r.Failed() {
		fmt.Fprintf(&b, "replay: go test ./internal/chaos -run 'TestChaos_Scenarios/%s' -chaos.seed=%d\n", r.Scenario, r.Seed)
		fmt.Fprintf(&b, "        (or: clusterbench -chaos -scenario %s -seed %d)\n", r.Scenario, r.Seed)
	}
	return b.String()
}

// nodeFaults is the live fault state one node's hooks consult. Windows
// are absolute expiry times written by the executor and read on every
// request; an expired window is simply inert, so windowed faults need
// no tear-down step.
type nodeFaults struct {
	mu            sync.Mutex
	slowVerb      string
	slowDelay     time.Duration
	slowUntil     time.Time
	blackoutUntil time.Time
	dropEvery     int
	dropUntil     time.Time
	latencyDelay  time.Duration
	latencyUntil  time.Time
	dropSeen      int64
}

// harness is one run's shared state.
type harness struct {
	spec  Spec
	seed  int64
	start time.Time

	c    *cluster.Cluster
	hist History

	stateMu sync.Mutex
	states  map[string]*nodeFaults

	eventMu sync.Mutex
	events  []cluster.Event

	// deadline storms are global, not per node.
	stormUntil atomic.Int64 // unix nanos
	stormDelay atomic.Int64 // nanos

	// disturbed spans: while any of these covers an op's window the op's
	// failure is excused. Kill spans stay open until the matching
	// restart completes.
	distMu    sync.Mutex
	disturbed []span
	openKill  map[string]int // node -> index of its open span

	faultErrMu  sync.Mutex
	faultErrors []string
	notes       []string
	corrupted   map[string]string // node -> WAL file its FaultCorrupt flipped
}

type span struct{ from, to time.Time }

func (h *harness) state(node string) *nodeFaults {
	h.stateMu.Lock()
	defer h.stateMu.Unlock()
	st := h.states[node]
	if st == nil {
		st = &nodeFaults{}
		h.states[node] = st
	}
	return st
}

func (h *harness) faultErr(f Fault, err error) {
	h.faultErrMu.Lock()
	h.faultErrors = append(h.faultErrors, fmt.Sprintf("%s: %v", f, err))
	h.faultErrMu.Unlock()
}

func (h *harness) note(f Fault, format string, args ...any) {
	h.faultErrMu.Lock()
	h.notes = append(h.notes, fmt.Sprintf("%s: %s", f, fmt.Sprintf(format, args...)))
	h.faultErrMu.Unlock()
}

// disturb records a closed disturbance span.
func (h *harness) disturb(from, to time.Time) {
	h.distMu.Lock()
	h.disturbed = append(h.disturbed, span{from, to})
	h.distMu.Unlock()
}

// openDisturbance starts a kill span that closeDisturbance later seals.
func (h *harness) openDisturbance(node string, from time.Time) {
	h.distMu.Lock()
	h.disturbed = append(h.disturbed, span{from, time.Time{}})
	h.openKill[node] = len(h.disturbed) - 1
	h.distMu.Unlock()
}

func (h *harness) closeDisturbance(node string, to time.Time) {
	h.distMu.Lock()
	if i, ok := h.openKill[node]; ok {
		h.disturbed[i].to = to
		delete(h.openKill, node)
	}
	h.distMu.Unlock()
}

// excused reports whether op's window overlaps any disturbance span,
// padded by the recovery slack the failure detector and pools need.
func (h *harness) excused(op Op) bool {
	slack := h.spec.HeartbeatInterval + h.spec.HeartbeatTimeout + h.spec.PoolTimeout
	h.distMu.Lock()
	defer h.distMu.Unlock()
	for _, s := range h.disturbed {
		to := s.to
		if to.IsZero() { // still open: disturbance never ended
			to = op.End
		}
		if op.Start.Before(to.Add(slack)) && s.from.Add(-slack).Before(op.End) {
			return true
		}
	}
	return false
}

// Run executes one scenario under one seed and checks the history.
func Run(spec Spec, seed int64) (*Report, error) {
	spec = spec.withDefaults()
	h := &harness{
		spec:      spec,
		seed:      seed,
		states:    map[string]*nodeFaults{},
		openKill:  map[string]int{},
		corrupted: map[string]string{},
	}

	cfg := cluster.Config{
		Nodes:               spec.Nodes,
		Replicas:            spec.Replicas,
		WriteQuorum:         spec.WriteQuorum,
		ReadQuorum:          spec.ReadQuorum,
		HeartbeatInterval:   spec.HeartbeatInterval,
		HeartbeatTimeout:    spec.HeartbeatTimeout,
		PoolTimeout:         spec.PoolTimeout,
		PoolAttempts:        spec.PoolAttempts,
		DrainTimeout:        spec.DrainTimeout,
		AllowUnsafeQuorums:  spec.AllowUnsafeQuorums,
		HotKeyCache:         spec.HotKeyCache,
		CacheLease:          spec.CacheLease,
		Durable:             spec.Durable, // WAL root is a cluster-owned temp dir, removed on Close
		WALSegmentBytes:     spec.WALSegmentBytes,
		WALScrubInterval:    spec.WALScrubInterval,
		SyncStreamThreshold: spec.SyncStreamThreshold,
		AntiEntropyInterval: spec.AntiEntropyInterval,
		// Chaos key spaces are tiny and the zipfian head is steep: a low
		// threshold gets the hot keys resident within the short workload
		// window, which is the point of the scenario.
		CacheHotThreshold: 2,
		ServerPreHandle:   h.serverPreHandle,
		PoolFailConn:      h.poolFailConn,
		PoolPreAttempt:    h.poolPreAttempt,
		EventTap: func(e cluster.Event) {
			h.eventMu.Lock()
			h.events = append(h.events, e)
			h.eventMu.Unlock()
		},
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("chaos: cluster start: %w", err)
	}
	defer c.Close()
	h.c = c

	plan := FaultPlan(spec, seed)
	h.start = time.Now()

	// Fault executor: every fault fires at its offset in its own
	// goroutine, so lifecycle faults can overlap in-flight recovery work
	// (that overlap is much of what the scenarios are probing). The
	// faults on a node whose log gets corrupted are the exception: they
	// run in plan order. Corruption waits for a sealed segment, which on
	// a loaded host can take longer than the plan's gaps; the kill and
	// the restart that must refuse the damage may not run ahead of it,
	// and a fault behind a late one keeps its planned gap after it. Under
	// RequireScrubEvent the kill also waits for the scrub to find the
	// damage.
	chained := map[string]bool{}
	for _, f := range plan {
		if f.Kind == FaultCorrupt {
			chained[f.Node] = true
		}
	}
	type link struct {
		done chan struct{}
		at   time.Duration
	}
	last := map[string]link{}
	var faultWG sync.WaitGroup
	for _, f := range plan {
		prev, done := last[f.Node], make(chan struct{})
		if chained[f.Node] {
			last[f.Node] = link{done: done, at: f.At}
		}
		faultWG.Add(1)
		go func(f Fault) {
			defer faultWG.Done()
			defer close(done)
			time.Sleep(time.Until(h.start.Add(f.At)))
			if prev.done != nil {
				select {
				case <-prev.done:
				default:
					<-prev.done
					time.Sleep(f.At - prev.at)
				}
			}
			if f.Kind == FaultKill && chained[f.Node] && spec.RequireScrubEvent {
				h.await(cluster.EventWALCorrupt, f.Node, awaitBound)
			}
			h.apply(f)
		}(f)
	}

	// Workload: spec.Workers client workers fanned out on a sched.Pool,
	// each executing its deterministic op stream until the window ends.
	pool := sched.New(spec.Workers)
	ctx, cancel := context.WithCancel(context.Background())
	runErr := pool.ParallelForCtx(ctx, spec.Workers, 1, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			h.runWorker(ctx, w)
		}
	})
	cancel()
	pool.Close()
	faultWG.Wait()
	if runErr != nil {
		return nil, fmt.Errorf("chaos: workload fan-out: %w", runErr)
	}

	// Recovery: restart anything the plan left dead, then wait until a
	// full-key sweep succeeds.
	h.restartLeftovers()
	faultsDone := time.Now()
	if err := h.awaitRecovery(10 * time.Second); err != nil {
		return nil, err
	}
	recovery := time.Since(faultsDone)
	syncRepairs, convergeFailure := h.converge()
	h.verifySweep()

	// With the lease cache on, the contract is bounded staleness: a
	// cached read may trail the newest write by up to one lease, never
	// more. The checker enforces exactly that bound.
	var staleness time.Duration
	if spec.HotKeyCache {
		staleness = spec.CacheLease
	}
	res := CheckWithStaleness(h.hist.Ops(), h.excused, staleness)

	cs := c.Counters()
	cs.Add("chaos.ops", float64(res.Ops))
	cs.Add("chaos.anomalies", float64(len(res.Anomalies)))
	cs.Add("chaos.errors-canceled", float64(res.Errors.Canceled))
	cs.Add("chaos.errors-excused", float64(res.Errors.Excused))
	cs.Add("chaos.errors-unexcused", float64(res.Errors.Unexcused))
	cs.Add("chaos.sync-repairs", float64(syncRepairs))

	h.eventMu.Lock()
	events := append([]cluster.Event(nil), h.events...)
	h.eventMu.Unlock()
	if spec.RequireScrubEvent {
		seen := false
		for _, e := range events {
			if e.Type == cluster.EventWALCorrupt {
				seen = true
				break
			}
		}
		if !seen {
			h.faultErrMu.Lock()
			h.faultErrors = append(h.faultErrors, "required wal-corrupt scrub event never fired: injected corruption went undetected")
			h.faultErrMu.Unlock()
		}
	}
	return &Report{
		Scenario:        spec.Name,
		Seed:            seed,
		Plan:            plan,
		Result:          res,
		Events:          events,
		FaultErrors:     h.faultErrors,
		Notes:           h.notes,
		Recovery:        recovery,
		SyncRepairs:     syncRepairs,
		ConvergeFailure: convergeFailure,
		Wall:            time.Since(h.start),
		Counters:        cs,
	}, nil
}

// awaitBound caps how long a fault waits for the event it awaits.
const awaitBound = 2 * time.Second

// await blocks until node has emitted an event of type t, or bound has
// passed. A fault that awaits an event that never comes still fires,
// late, and whatever the spec requires of the event fails the run.
func (h *harness) await(t cluster.EventType, node string, bound time.Duration) {
	deadline := time.Now().Add(bound)
	for time.Now().Before(deadline) {
		h.eventMu.Lock()
		seen := false
		for _, e := range h.events {
			seen = seen || (e.Type == t && e.Node == node)
		}
		h.eventMu.Unlock()
		if seen {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// converge is the convergence gate RequireConvergence scenarios run
// between recovery and the verification sweep: repeated SyncNow passes
// until one repairs nothing. A quiet pass means every live pair's
// Merkle trees matched — all replicas hold byte-identical state — so
// the gate is the run's proof that anti-entropy reconciled whatever the
// faults diverged. Matching trees prove nothing if the trees do not
// describe the stores, so the gate then checks every live node's digest
// against its store. The pass cap turns an oscillating repair (two
// replicas endlessly overwriting each other — a tiebreak that is not a
// total order) into a failure, not a hang.
func (h *harness) converge() (int, string) {
	if !h.spec.RequireConvergence {
		return 0, ""
	}
	const maxPasses = 16
	total := 0
	for pass := 1; pass <= maxPasses; pass++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		n, err := h.c.SyncNow(ctx)
		cancel()
		if err != nil {
			return total, fmt.Sprintf("sync pass %d: %v", pass, err)
		}
		if n == 0 {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := h.c.CheckDigests(ctx)
			cancel()
			if err != nil {
				return total, err.Error()
			}
			return total, ""
		}
		total += n
	}
	return total, fmt.Sprintf("replicas still diverging after %d sync passes (%d copies rewritten)", maxPasses, total)
}

// apply executes one fault at its scheduled time.
func (h *harness) apply(f Fault) {
	now := time.Now()
	switch f.Kind {
	case FaultKill:
		h.openDisturbance(f.Node, now)
		if err := h.c.Kill(f.Node); err != nil {
			h.faultErr(f, err)
		}
	case FaultRestart:
		err := h.c.Restart(f.Node)
		h.closeDisturbance(f.Node, time.Now())
		if err != nil {
			h.faultErr(f, err)
		}
	case FaultJoin:
		err := h.c.Join(f.Node)
		h.disturb(now, time.Now())
		if err != nil {
			h.faultErr(f, err)
		}
	case FaultCorrupt:
		// Disk damage, not a lifecycle event: the node keeps serving from
		// memory, so nothing is disturbed — the scrub finding it is the
		// scenario's whole point.
		file, err := h.corruptWAL(f.Node)
		if err != nil {
			h.faultErr(f, err)
			break
		}
		h.note(f, "flipped a byte in %s", filepath.Base(file))
		h.faultErrMu.Lock()
		h.corrupted[f.Node] = file
		h.faultErrMu.Unlock()
	case FaultRestartCorrupt:
		// The node's log carries injected corruption: recovery MUST refuse
		// to serve rather than silently drop or mangle acked data.
		file, err := h.keepCorruption(f)
		if err != nil {
			h.faultErr(f, err)
		}
		if err := h.c.Restart(f.Node); err == nil {
			h.closeDisturbance(f.Node, time.Now())
			h.faultErr(f, fmt.Errorf("restart on a corrupt log (%s) succeeded; recovery must refuse unverifiable data", filepath.Base(file)))
			break
		}
		// Expected refusal. Operator playbook for a dead disk: wipe the
		// log, restart empty, let re-replication rebuild from the peers.
		if err := h.c.WipeWAL(f.Node); err != nil {
			h.faultErr(f, err)
		}
		err = h.c.Restart(f.Node)
		h.closeDisturbance(f.Node, time.Now())
		if err != nil {
			h.faultErr(f, err)
		}
	case FaultSlow:
		st := h.state(f.Node)
		st.mu.Lock()
		st.slowVerb, st.slowDelay, st.slowUntil = f.Verb, f.Delay, now.Add(f.For)
		st.mu.Unlock()
		h.disturb(now, now.Add(f.For))
	case FaultBlackout:
		st := h.state(f.Node)
		st.mu.Lock()
		st.blackoutUntil = now.Add(f.For)
		st.mu.Unlock()
		h.disturb(now, now.Add(f.For))
	case FaultConnDrop:
		st := h.state(f.Node)
		st.mu.Lock()
		st.dropEvery, st.dropUntil = f.DropEvery, now.Add(f.For)
		st.mu.Unlock()
		h.disturb(now, now.Add(f.For))
	case FaultLatency:
		st := h.state(f.Node)
		st.mu.Lock()
		st.latencyDelay, st.latencyUntil = f.Delay, now.Add(f.For)
		st.mu.Unlock()
		h.disturb(now, now.Add(f.For))
	case FaultDeadlineStorm:
		h.stormDelay.Store(int64(f.Delay))
		h.stormUntil.Store(now.Add(f.For).UnixNano())
		h.disturb(now, now.Add(f.For))
	default:
		h.faultErr(f, fmt.Errorf("unknown fault kind"))
	}
}

// corruptWAL flips one byte in the middle of the node's lowest-sequence
// sealed WAL segment and returns its path. It waits (bounded) for a
// sealed segment to exist: the fault fires at a seed-chosen offset, and
// the victim's active segment must have rotated at least once. While
// none has, it writes filler keys of its own — a prefix the checker
// never reads, 1 KiB values, at most fillerPuts of them — so a slow
// workload cannot leave the victim with nothing to corrupt.
func (h *harness) corruptWAL(node string) (string, error) {
	dir, err := h.c.WALDir(node)
	if err != nil {
		return "", err
	}
	deadline := time.Now().Add(2 * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	filler := strings.Repeat("f", 1024)
	for i := 0; ; i++ {
		target, err := flipOldestSealed(dir)
		if err != nil || target != "" {
			return target, err
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("no sealed WAL segment appeared in %s to corrupt", dir)
		}
		if i < fillerPuts {
			// Best effort: a filler key whose replicas miss the victim,
			// or a put that fails, only costs the next one.
			h.c.PutCtx(ctx, fmt.Sprintf("scrub-filler-%02d", i), filler) //nolint:errcheck // see above
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fillerPuts caps corruptWAL's own writes: with 1 KiB values, two that
// land on the victim seal a 2 KiB segment, and each filler key lands
// there with probability Replicas/Nodes.
const fillerPuts = 16

// keepCorruption makes sure the killed node's log still holds the
// injected damage before the restart that must refuse it. A snapshot
// may have pruned the corrupted segment since; the damage then goes
// into the current oldest sealed segment instead, and a note says so.
// It returns the corrupted file.
func (h *harness) keepCorruption(f Fault) (string, error) {
	h.faultErrMu.Lock()
	file := h.corrupted[f.Node]
	h.faultErrMu.Unlock()
	if file == "" {
		return "", fmt.Errorf("no corrupt-wal fault landed on %s", f.Node)
	}
	if _, err := os.Stat(file); err == nil {
		return file, nil
	}
	dir, err := h.c.WALDir(f.Node)
	if err != nil {
		return "", err
	}
	target, err := flipOldestSealed(dir)
	if err == nil && target == "" {
		err = fmt.Errorf("no sealed WAL segment left in %s to corrupt", dir)
	}
	if err != nil {
		return "", err
	}
	h.note(f, "%s was gone; flipped a byte in %s instead", filepath.Base(file), filepath.Base(target))
	return target, nil
}

// flipOldestSealed flips the middle byte of the lowest-sequence sealed
// segment in dir and returns its path, or "" when no non-empty sealed
// segment exists yet. Segment names are zero-padded sequence numbers:
// everything before the last (active) one is sealed.
func flipOldestSealed(dir string) (string, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) < 2 {
		return "", err
	}
	sort.Strings(segs)
	target := segs[0]
	data, err := os.ReadFile(target)
	if err != nil || len(data) == 0 {
		return "", err
	}
	data[len(data)/2] ^= 0x40
	return target, os.WriteFile(target, data, 0o600)
}

// serverPreHandle is the per-node server-side hook: heartbeat blackouts
// stall PING, slow windows stall matching verbs, and nothing else does.
func (h *harness) serverPreHandle(name string) func(verb, key string) func() {
	return func(verb, _ string) func() {
		st := h.state(name)
		st.mu.Lock()
		blackout := st.blackoutUntil
		slowVerb, delay, slow := st.slowVerb, st.slowDelay, st.slowUntil
		st.mu.Unlock()
		now := time.Now()
		if verb == "PING" && now.Before(blackout) {
			return func() { time.Sleep(time.Until(blackout)) }
		}
		// A prefix match: a slow "SET" window also stalls SETV, the verb
		// quorum writes use.
		if slowVerb != "" && now.Before(slow) && strings.HasPrefix(verb, slowVerb) {
			return func() { time.Sleep(delay) }
		}
		return nil
	}
}

// poolFailConn drops the first wire attempt of every dropEvery-th
// request to the node during a conn-drop window. Later attempts always
// pass: the drop exercises the retry path, and no replica misses a
// write (a node that stays up is only repaired by anti-entropy or read
// repair, so dropping every attempt would test those instead).
func (h *harness) poolFailConn(name string) func(req, attempt int) bool {
	return func(req, attempt int) bool {
		if attempt != 1 {
			return false
		}
		st := h.state(name)
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.dropEvery == 0 || !time.Now().Before(st.dropUntil) {
			return false
		}
		st.dropSeen++
		return st.dropSeen%int64(st.dropEvery) == 0
	}
}

// poolPreAttempt injects client-side latency spikes during a latency
// window: the delay it returns holds the attempt back and eats its
// deadline budget like real network delay.
func (h *harness) poolPreAttempt(name string) func(attempt int) time.Duration {
	return func(int) time.Duration {
		st := h.state(name)
		st.mu.Lock()
		delay, until := st.latencyDelay, st.latencyUntil
		st.mu.Unlock()
		if time.Now().Before(until) {
			return delay
		}
		return 0
	}
}

// runWorker executes one worker's deterministic op stream until the
// workload window closes, recording every operation.
func (h *harness) runWorker(ctx context.Context, w int) {
	next := opStream(h.spec, h.seed, w)
	end := h.start.Add(h.spec.Duration)
	for {
		p := next()
		time.Sleep(p.Gap)
		if !time.Now().Before(end) || ctx.Err() != nil {
			return
		}
		deadline := h.spec.OpTimeout
		if time.Now().UnixNano() < h.stormUntil.Load() {
			deadline = time.Duration(h.stormDelay.Load())
		}
		opCtx, cancel := context.WithTimeout(ctx, deadline)
		op := Op{Worker: w, Kind: p.Kind, Key: p.Key, Value: p.Value, Start: time.Now()}
		switch p.Kind {
		case OpPut:
			op.Err = h.c.PutCtx(opCtx, p.Key, p.Value)
		case OpDel:
			op.Err = h.c.DelCtx(opCtx, p.Key)
		case OpGet:
			op.Value, op.Found, op.Err = h.c.GetCtx(opCtx, p.Key)
		}
		op.End = time.Now()
		cancel()
		h.hist.Record(op)
	}
}

// restartLeftovers restarts any node the plan killed and never brought
// back, using the event stream as ground truth.
func (h *harness) restartLeftovers() {
	h.eventMu.Lock()
	alive := map[string]bool{}
	for _, e := range h.events {
		switch e.Type {
		case cluster.EventKill:
			alive[e.Node] = false
		case cluster.EventRestart:
			alive[e.Node] = true
		}
	}
	h.eventMu.Unlock()
	for node, up := range alive {
		if up {
			continue
		}
		if err := h.c.Restart(node); err != nil {
			h.faultErr(Fault{Kind: FaultRestart, Node: node}, err)
		}
		h.closeDisturbance(node, time.Now())
	}
}

// awaitRecovery probes and sweeps until every key reads cleanly (these
// probing reads are not recorded; the recorded verification sweep runs
// after the cluster is stable).
func (h *harness) awaitRecovery(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		h.c.Probe()
		clean := true
		for i := 0; i < h.spec.Keys; i++ {
			if _, _, err := h.c.Get(fmt.Sprintf("k%02d", i)); err != nil {
				clean = false
				break
			}
		}
		if clean {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos %s seed=%d: cluster did not recover within %s of the last fault",
				h.spec.Name, h.seed, timeout)
		}
		time.Sleep(h.spec.HeartbeatInterval)
	}
}

// verifySweep records one sequential read of every key after recovery;
// the checker validates these reads against the whole history, so a
// write the cluster acknowledged and then lost surfaces here as a
// stale-read anomaly even if no workload read caught it live.
func (h *harness) verifySweep() {
	for i := 0; i < h.spec.Keys; i++ {
		key := fmt.Sprintf("k%02d", i)
		ctx, cancel := context.WithTimeout(context.Background(), h.spec.OpTimeout)
		op := Op{Worker: -1, Kind: OpGet, Key: key, Start: time.Now()}
		op.Value, op.Found, op.Err = h.c.GetCtx(ctx, key)
		op.End = time.Now()
		cancel()
		h.hist.Record(op)
	}
}
