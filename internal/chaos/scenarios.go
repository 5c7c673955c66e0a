package chaos

import (
	"fmt"
	"math/rand"
	"time"
)

// Scenarios returns the named chaos scenarios — one per failure mode
// the cluster claims to survive. Each plan draws its victims and
// offsets from the seeded rng, so every seed is a different concrete
// schedule of the same shape. All of them must finish with zero
// anomalies and zero unexcused errors; the fault windows themselves are
// licensed to cause (excused) unavailability, never inconsistency.
func Scenarios() []Spec {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	pick := func(rng *rand.Rand, nodes []string) string { return nodes[rng.Intn(len(nodes))] }
	pick2 := func(rng *rand.Rand, nodes []string) (string, string) {
		a := rng.Intn(len(nodes))
		b := rng.Intn(len(nodes) - 1)
		if b >= a {
			b++
		}
		return nodes[a], nodes[b]
	}
	return []Spec{
		{
			// A node crashes and recovers, three times in a row: the
			// failure detector, hint parking, and replay cycle under
			// sustained churn.
			Name: "kill-restart-churn",
			Plan: func(rng *rand.Rand, nodes []string) []Fault {
				var plan []Fault
				at := ms(120 + rng.Intn(60))
				for cycle := 0; cycle < 3; cycle++ {
					n := pick(rng, nodes)
					down := ms(150 + rng.Intn(100))
					plan = append(plan,
						Fault{At: at, Kind: FaultKill, Node: n},
						Fault{At: at + down, Kind: FaultRestart, Node: n})
					at += down + ms(120+rng.Intn(80)) // fully recover before the next victim
				}
				return plan
			},
		},
		{
			// The victim dies again while its hint replay is still
			// crawling (its SETs are slowed through the replay window).
			// Transport-failed hints must stay parked on their holders
			// and land on the second recovery — consuming them on
			// failure would silently drop acknowledged sloppy-quorum
			// writes.
			Name: "kill-during-hint-replay",
			Plan: func(rng *rand.Rand, nodes []string) []Fault {
				n := pick(rng, nodes)
				kill := ms(130 + rng.Intn(40))
				restart := kill + ms(250+rng.Intn(60))
				return []Fault{
					{At: kill, Kind: FaultKill, Node: n},
					{At: restart - ms(20), For: ms(350), Kind: FaultSlow, Node: n, Verb: "SET", Delay: ms(25)},
					{At: restart, Kind: FaultRestart, Node: n},
					{At: restart + ms(40), Kind: FaultKill, Node: n}, // mid-replay
					{At: restart + ms(240), Kind: FaultRestart, Node: n},
				}
			},
		},
		{
			// One node crashes while a second is alive but presumed dead
			// (heartbeat blackout): keys replicated on both lose their
			// read quorum — those reads may fail (excused) but nothing
			// acknowledged may be lost once both recover. The blacked-out
			// node keeps its store, so no hint holder ever dies holding
			// the only copy.
			Name: "quorum-loss-and-recovery",
			Plan: func(rng *rand.Rand, nodes []string) []Fault {
				a, b := pick2(rng, nodes)
				kill := ms(140 + rng.Intn(40))
				return []Fault{
					{At: kill, Kind: FaultKill, Node: a},
					{At: kill + ms(30), For: ms(280 + rng.Intn(60)), Kind: FaultBlackout, Node: b},
					{At: kill + ms(400), Kind: FaultRestart, Node: a},
				}
			},
		},
		{
			// A replica turns slow on reads and writes while a deadline
			// storm tightens op budgets: quorum abort must shed the
			// laggard, canceled ops stay indeterminate, and nothing
			// canceled may masquerade as committed-then-lost.
			Name: "slow-replica-tight-deadline",
			Plan: func(rng *rand.Rand, nodes []string) []Fault {
				n := pick(rng, nodes)
				at := ms(150 + rng.Intn(50))
				return []Fault{
					{At: at, For: ms(600), Kind: FaultSlow, Node: n, Verb: "SET", Delay: ms(60)},
					{At: at, For: ms(600), Kind: FaultSlow, Node: n, Verb: "GET", Delay: ms(60)},
					{At: at + ms(200), For: ms(200), Kind: FaultDeadlineStorm, Delay: ms(30)},
				}
			},
		},
		{
			// Pure false death: the node answers every request except
			// PING. Traffic routes around it via hints; on the up
			// transition the replay must close the gap before the node
			// serves reads again.
			Name: "heartbeat-blackout",
			Plan: func(rng *rand.Rand, nodes []string) []Fault {
				n := pick(rng, nodes)
				return []Fault{
					{At: ms(180 + rng.Intn(60)), For: ms(280 + rng.Intn(80)), Kind: FaultBlackout, Node: n},
				}
			},
		},
		{
			// First-attempt connection drops on two nodes with
			// overlapping windows: the retry/backoff path absorbs every
			// drop, so the run should see no errors at all.
			Name: "conn-drop-storm",
			Plan: func(rng *rand.Rand, nodes []string) []Fault {
				a, b := pick2(rng, nodes)
				at := ms(130 + rng.Intn(50))
				return []Fault{
					{At: at, For: ms(350), Kind: FaultConnDrop, Node: a, DropEvery: 2},
					{At: at + ms(150), For: ms(350), Kind: FaultConnDrop, Node: b, DropEvery: 3},
				}
			},
		},
		{
			// Two waves of cluster-wide deadline pressure, the second
			// tight enough that most in-flight quorums cancel midway.
			// Every failure must surface as a wrapped context error.
			Name: "deadline-storm",
			Plan: func(rng *rand.Rand, nodes []string) []Fault {
				at := ms(150 + rng.Intn(60))
				return []Fault{
					{At: at, For: ms(200), Kind: FaultDeadlineStorm, Delay: ms(25)},
					{At: at + ms(350), For: ms(200), Kind: FaultDeadlineStorm, Delay: ms(6)},
				}
			},
		},
		{
			// Zipfian read traffic with the hot-key lease cache enabled
			// while nodes die and come back: cached reads must never trail
			// the newest acknowledged write by more than the lease. The
			// checker runs with the lease as its staleness allowance, so
			// any read staler than the bound — a cache entry surviving a
			// write it should have seen, a kill resurrecting a stale
			// version — is an anomaly.
			Name:        "hotkey-cache",
			HotKeyCache: true,
			ZipfTheta:   0.99,
			Keys:        16,
			Plan: func(rng *rand.Rand, nodes []string) []Fault {
				var plan []Fault
				at := ms(130 + rng.Intn(50))
				for cycle := 0; cycle < 2; cycle++ {
					n := pick(rng, nodes)
					down := ms(160 + rng.Intn(80))
					plan = append(plan,
						Fault{At: at, Kind: FaultKill, Node: n},
						Fault{At: at + down, Kind: FaultRestart, Node: n})
					at += down + ms(140+rng.Intn(60))
				}
				return plan
			},
		},
		{
			// Crash-stop faults against durable nodes: every Kill is a
			// kill -9 (no drain — the WAL's synced prefix is all that
			// survives) and every Restart recovers from snapshot + log
			// tail. Two staggered single-node crashes exercise recovery
			// racing live traffic and hint top-up; then ALL nodes die at
			// once and restart. The total outage is the part only a WAL
			// can pass — hints die with their holders, so every acked
			// write that comes back was replayed from disk.
			Name:    "crash-stop",
			Durable: true,
			Plan: func(rng *rand.Rand, nodes []string) []Fault {
				a, b := pick2(rng, nodes)
				var plan []Fault
				at := ms(130 + rng.Intn(50))
				for _, n := range []string{a, b} {
					down := ms(180 + rng.Intn(80))
					plan = append(plan,
						Fault{At: at, Kind: FaultKill, Node: n},
						Fault{At: at + down, Kind: FaultRestart, Node: n})
					at += down + ms(150+rng.Intn(60)) // let recovery + replay settle
				}
				// Total outage: no survivors, no hints, only the logs.
				at += ms(100)
				for _, n := range nodes {
					plan = append(plan, Fault{At: at, Kind: FaultKill, Node: n})
				}
				back := at + ms(150)
				for i, n := range nodes {
					plan = append(plan, Fault{At: back + ms(30*i), Kind: FaultRestart, Node: n})
				}
				return plan
			},
		},
		{
			// A node joins mid-run while an existing node drops first
			// attempts and another adds latency spikes: key migration
			// must push through the flaky network without losing or
			// duplicating anything the workload can observe.
			Name:  "partition-during-migration",
			Nodes: 5,
			Plan: func(rng *rand.Rand, nodes []string) []Fault {
				a, b := pick2(rng, nodes)
				join := ms(280 + rng.Intn(80))
				return []Fault{
					{At: join - ms(60), For: ms(400), Kind: FaultConnDrop, Node: a, DropEvery: 2},
					{At: join - ms(40), For: ms(400), Kind: FaultLatency, Node: b, Delay: ms(8)},
					{At: join, Kind: FaultJoin, Node: fmt.Sprintf("node%d", len(nodes))},
				}
			},
		},
		{
			// Partition by false death, healed by anti-entropy alone. Two
			// nodes are blacked out in overlapping windows, so the failure
			// detector routes writes around them — and with hints disabled
			// nothing is parked to replay on the up transition. Writes keep
			// landing on whatever quorums remain, so the blacked-out
			// replicas silently fall behind on different keys: a partition
			// with traffic on both sides of it. After the heal, Merkle sync
			// is the ONLY path back; the run drives it to quiescence and
			// fails unless every replica converges byte-identically with
			// zero lost acked writes (the sweep's quorum reads still check
			// the whole history).
			Name:                "heal-converge",
			DisableHints:        true,
			AntiEntropyInterval: ms(150),
			RequireConvergence:  true,
			Plan: func(rng *rand.Rand, nodes []string) []Fault {
				a, b := pick2(rng, nodes)
				at := ms(140 + rng.Intn(40))
				return []Fault{
					{At: at, For: ms(280 + rng.Intn(60)), Kind: FaultBlackout, Node: a},
					{At: at + ms(80), For: ms(280 + rng.Intn(60)), Kind: FaultBlackout, Node: b},
				}
			},
		},
		{
			// Silent disk corruption, detected in the background and
			// recovered by re-replication. One byte flips inside a sealed
			// WAL segment of a live node: the scrub must surface it
			// (RequireScrubEvent) while the node keeps serving from memory
			// — corruption of cold log bytes is not a correctness event
			// until something replays them. Then the node is killed and
			// restarted: recovery MUST refuse the corrupt log, the harness
			// wipes it (the dead-disk playbook), and the node comes back
			// empty — with hints disabled, anti-entropy streaming the
			// peers' WALs is what rebuilds it. The convergence gate plus
			// the checker's full-history sweep prove no acked write was
			// lost to either the corruption or the wipe.
			Name:                "scrub-corrupt",
			Durable:             true,
			DisableHints:        true,
			AntiEntropyInterval: ms(150),
			RequireConvergence:  true,
			RequireScrubEvent:   true,
			WALSegmentBytes:     2048,
			WALScrubInterval:    ms(25),
			SyncStreamThreshold: 0.001, // tiny keyspace: make the wiped node's rebuild take the streaming path
			Plan: func(rng *rand.Rand, nodes []string) []Fault {
				n := pick(rng, nodes)
				at := ms(300 + rng.Intn(60)) // enough writes first to seal a segment on the victim
				return []Fault{
					{At: at, Kind: FaultCorrupt, Node: n},
					{At: at + ms(250), Kind: FaultKill, Node: n},
					{At: at + ms(320), Kind: FaultRestartCorrupt, Node: n},
				}
			},
		},
	}
}

// Scenario returns the named scenario.
func Scenario(name string) (Spec, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// ScenarioNames lists the scenario names in declaration order.
func ScenarioNames() []string {
	specs := Scenarios()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// SelfTestSpec is the checker's own acceptance gate: a deliberately
// broken cluster (W=1, R=1 under 3 replicas — no quorum intersection)
// with one replica slowed on writes. Quorum abort cancels the laggard
// after the single ack, the replicas diverge, and single-answer reads
// serve stale values. A run of this spec MUST produce stale-read
// anomalies; a checker that passes it is blind.
func SelfTestSpec() Spec {
	return Spec{
		Name:               "unsafe-quorum-selftest",
		Nodes:              3,
		Replicas:           3,
		WriteQuorum:        1,
		ReadQuorum:         1,
		AllowUnsafeQuorums: true,
		Keys:               4,
		Workers:            4,
		Duration:           800 * time.Millisecond,
		Plan: func(rng *rand.Rand, nodes []string) []Fault {
			return []Fault{
				{At: 0, For: 2 * time.Second, Kind: FaultSlow, Node: nodes[rng.Intn(len(nodes))], Verb: "SET", Delay: 40 * time.Millisecond},
			}
		},
	}
}
