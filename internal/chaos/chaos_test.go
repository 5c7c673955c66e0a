package chaos

import (
	"flag"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/sockets"
	"repro/internal/testutil"
)

// -chaos.seed replays a specific schedule: a failing run prints the
// exact flag invocation to reproduce it.
var seedFlag = flag.Int64("chaos.seed", 1, "seed for the chaos scenario schedules")

// TestChaos_Scenarios runs every named scenario under the (replayable)
// seed. Faults are licensed to cause excused unavailability; any
// anomaly or unexcused error fails the test with the seed in the
// message.
func TestChaos_Scenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenarios are multi-second integration runs")
	}
	for _, spec := range Scenarios() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			base := testutil.SettleGoroutines()
			rep, err := Run(spec, *seedFlag)
			if err != nil {
				t.Fatalf("seed=%d: %v", *seedFlag, err)
			}
			t.Logf("\n%s", rep)
			if rep.Failed() {
				t.Errorf("scenario %s failed under seed=%d — replay with -chaos.seed=%d\n%s",
					spec.Name, *seedFlag, *seedFlag, rep)
			}
			if rep.Result.Ops == 0 {
				t.Error("harness recorded no operations")
			}
			if after := testutil.SettleGoroutines(); after > base+2 {
				t.Errorf("goroutines grew %d -> %d after harness run", base, after)
			}
		})
	}
}

// TestChaos_CheckerSelfTest is the checker's acceptance gate: a cluster
// deliberately configured without quorum intersection (W=1, R=1,
// Replicas=3, one write-slowed replica) must produce stale-read
// anomalies, and the report must carry the seed that reproduces them.
// If the checker waves this cluster through, it cannot be trusted on
// the real scenarios.
func TestChaos_CheckerSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos self-test is a multi-second integration run")
	}
	spec := SelfTestSpec()
	for attempt, seed := range []int64{*seedFlag, *seedFlag + 1, *seedFlag + 2} {
		rep, err := Run(spec, seed)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		stale := 0
		for _, a := range rep.Result.Anomalies {
			if a.Kind == AnomalyStale {
				stale++
			}
		}
		if stale == 0 {
			t.Logf("attempt %d (seed=%d): no stale reads surfaced yet", attempt, seed)
			continue
		}
		t.Logf("checker caught %d stale reads under seed=%d", stale, seed)
		if !strings.Contains(rep.String(), "seed="+strconv.FormatInt(seed, 10)) {
			t.Errorf("report does not carry the reproducing seed:\n%s", rep)
		}
		if !strings.Contains(rep.String(), "-chaos.seed=") {
			t.Errorf("failing report lacks the replay command:\n%s", rep)
		}
		return
	}
	t.Fatalf("checker self-test: a W=1/R=1 cluster with a slow replica produced no stale-read anomalies across 3 seeds starting at %d — the checker is blind", *seedFlag)
}

// TestChaos_DeterministicSchedules: the whole derived schedule — fault
// plan and per-worker op streams — is a pure function of (spec, seed).
func TestChaos_DeterministicSchedules(t *testing.T) {
	for _, spec := range append(Scenarios(), SelfTestSpec()) {
		const seed = 42
		if a, b := FaultPlan(spec.withDefaults(), seed), FaultPlan(spec.withDefaults(), seed); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: fault plan not deterministic:\n%v\n%v", spec.Name, a, b)
		}
		if a, b := ScheduleString(spec, seed), ScheduleString(spec, seed); a != b {
			t.Errorf("%s: schedule rendering not deterministic", spec.Name)
		}
		for w := 0; w < 3; w++ {
			if a, b := PreviewOps(spec, seed, w, 64), PreviewOps(spec, seed, w, 64); !reflect.DeepEqual(a, b) {
				t.Errorf("%s worker %d: op stream not deterministic", spec.Name, w)
			}
		}
		// A different seed must derive a different schedule (64 ops x 3
		// workers plus rng-drawn fault offsets cannot collide).
		if a, b := ScheduleString(spec, seed), ScheduleString(spec, seed+1); a == b {
			t.Errorf("%s: seeds %d and %d derived identical schedules", spec.Name, seed, seed+1)
		}
	}
}

// TestChaos_ServerHookStallsOnlyInWindows: the server hook returns a
// stall only inside a slow or blackout window, on the window's node, for
// the verbs it names. Everywhere else, SETV and GET among them, it
// returns nil, and a node serves the request exactly as an unhooked
// server would: on the read loop for GET and SETV. So the scenarios test
// the dispatch path the store ships, not one the fault injector chose.
// Every windowed fault of every scenario's plan is checked, for each
// verb the server counts, inside its window and after it.
func TestChaos_ServerHookStallsOnlyInWindows(t *testing.T) {
	for _, spec := range append(Scenarios(), SelfTestSpec()) {
		for _, f := range FaultPlan(spec.withDefaults(), 42) {
			switch f.Kind {
			case FaultSlow, FaultBlackout, FaultConnDrop, FaultLatency, FaultDeadlineStorm:
			default:
				continue // point events: no window
			}
			h := &harness{states: map[string]*nodeFaults{}}
			h.apply(f)
			for _, node := range []string{f.Node, "bystander"} {
				hook := h.serverPreHandle(node)
				for _, verb := range sockets.Verbs() {
					want := node == f.Node && ((f.Kind == FaultSlow && strings.HasPrefix(verb, f.Verb)) ||
						(f.Kind == FaultBlackout && verb == "PING"))
					if got := hook(verb, "k") != nil; got != want {
						t.Errorf("%s: %s on %s inside the window: stall = %v, want %v", spec.Name, verb, node, got, want)
					}
				}
			}
			// Close the window: nothing stalls any more.
			st := h.state(f.Node)
			st.mu.Lock()
			st.slowUntil, st.blackoutUntil = time.Now(), time.Now()
			st.mu.Unlock()
			hook := h.serverPreHandle(f.Node)
			for _, verb := range sockets.Verbs() {
				if hook(verb, "k") != nil {
					t.Errorf("%s: %s on %s after the window: got a stall, want none", spec.Name, verb, f.Node)
				}
			}
		}
	}
}

// TestChaos_ScenarioRegistry: lookup and naming stay consistent.
func TestChaos_ScenarioRegistry(t *testing.T) {
	names := ScenarioNames()
	if len(names) != 12 {
		t.Fatalf("want 12 named scenarios, have %d: %v", len(names), names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate scenario name %q", n)
		}
		seen[n] = true
		if _, ok := Scenario(n); !ok {
			t.Errorf("Scenario(%q) not found", n)
		}
	}
	if _, ok := Scenario("no-such-scenario"); ok {
		t.Error("Scenario() found a scenario that does not exist")
	}
}

// TestChaos_DFSScenarioReuse: the seeded schedule machinery also drives
// the mp-based primary/backup store — same seed vocabulary, different
// fault-tolerance capstone.
func TestChaos_DFSScenarioReuse(t *testing.T) {
	const seed = 7
	sc := DFSScenario(seed, 40, 3)
	if len(sc) != 40 {
		t.Fatalf("scenario has %d ops, want 40", len(sc))
	}
	if !reflect.DeepEqual(sc, DFSScenario(seed, 40, 3)) {
		t.Fatal("DFSScenario not deterministic")
	}
	crashes := 0
	for _, op := range sc {
		if op == "crash" {
			crashes++
		}
	}
	if crashes > 2 {
		t.Fatalf("%d crashes exceed replicas-1", crashes)
	}
	res, err := dfs.Cluster{Replicas: 3}.Run(sc)
	if err != nil {
		t.Fatalf("dfs run of derived scenario: %v", err)
	}
	if res.Ops == 0 {
		t.Fatal("dfs scenario executed no ops")
	}
	// A failover registers when a later request detects the dead
	// primary, so a crash with no following traffic may go uncounted.
	if crashes > 0 && (res.Failovers == 0 || res.Failovers > crashes) {
		t.Errorf("failovers = %d, want 1..%d for the scripted crashes", res.Failovers, crashes)
	}
}
