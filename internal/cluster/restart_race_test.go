package cluster

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRestartDiscardsStaleProbe is the regression test for the Restart/
// heartbeat race: a probe already in flight against a node when it is
// killed and restarted must not apply its (stale) verdict to the fresh
// incarnation. The first incarnation of node1 stalls PING so the probe
// is reliably mid-flight when Kill bumps the epoch; the kill then cuts
// the probe's connection, its failure verdict arrives between Kill and
// the restarted node's first clean probe, and without the epoch guard
// it marked the recovered node spuriously down.
func TestRestartDiscardsStaleProbe(t *testing.T) {
	cfg := testConfig(3)
	cfg.HeartbeatInterval = 10 * time.Second // only explicit probes in this test
	cfg.HeartbeatTimeout = 2 * time.Second   // the stall must not time the probe out
	cfg.DrainTimeout = 10 * time.Millisecond // Kill cuts the stalled PING fast
	var incarnation atomic.Int32
	cfg.ServerPreHandle = func(name string) func(verb, key string) func() {
		if name != "node1" || incarnation.Add(1) > 1 {
			return nil // only node1's first incarnation stalls
		}
		return func(verb, _ string) func() {
			if verb != "PING" {
				return nil
			}
			return func() { time.Sleep(500 * time.Millisecond) }
		}
	}
	c := startCluster(t, cfg)
	n, err := c.lookup("node1")
	if err != nil {
		t.Fatal(err)
	}

	probeDone := make(chan bool, 1)
	go func() { probeDone <- c.probeNode(n) }()
	time.Sleep(50 * time.Millisecond) // the probe is now blocked in the stalled PING

	// Kill bumps the epoch before cutting connections, so the stale
	// probe is deterministically invalidated before its read wakes.
	if err := c.Kill("node1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart("node1"); err != nil {
		t.Fatal(err)
	}
	if ok := <-probeDone; ok {
		t.Error("stale probe of the killed incarnation reported success")
	}

	if n.down.Load() {
		t.Error("restarted node marked down by a stale probe of its previous incarnation")
	}
	if v, _ := c.Counters().Get("cluster.down-events"); v != 0 {
		t.Errorf("down-events = %v: the stale probe's verdict was applied", v)
	}
	// The fresh incarnation serves quorum traffic immediately.
	if err := c.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get("k"); err != nil || !ok || v != "v" {
		t.Fatalf("post-restart quorum read = (%q, %v, %v)", v, ok, err)
	}
}

// TestClusterDelTombstones: Del writes a quorum tombstone that wins by
// last-write-wins — the key reads back as missing everywhere, a newer
// Put resurrects it, and deleting a missing key is not an error.
func TestClusterDelTombstones(t *testing.T) {
	c := startCluster(t, testConfig(3))
	if err := c.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := c.Del("k"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get("k"); err != nil || ok {
		t.Fatalf("Get after Del = (%q, %v, %v), want not found", v, ok, err)
	}
	if err := c.Del("never-written"); err != nil {
		t.Errorf("Del of a missing key = %v", err)
	}
	if err := c.Put("k", "v2"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get("k"); err != nil || !ok || v != "v2" {
		t.Fatalf("Get after re-Put = (%q, %v, %v)", v, ok, err)
	}
	if v, _ := c.Counters().Get("cluster.dels"); v != 2 {
		t.Errorf("cluster.dels = %v, want 2", v)
	}
}

// TestClusterDelSurvivesReplicaOutage: a delete issued while one
// replica is dead must not resurrect when that replica recovers with
// its stale pre-delete copy — the tombstone's higher sequence wins the
// quorum read, and hint replay carries the tombstone onto the
// recovered node.
func TestClusterDelSurvivesReplicaOutage(t *testing.T) {
	cfg := testConfig(4)
	cfg.Replicas = 3
	c := startCluster(t, cfg)
	const keys = 40
	for i := 0; i < keys; i++ {
		if err := c.Put(key(i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Kill("node1"); err != nil {
		t.Fatal(err)
	}
	c.Probe()
	for i := 0; i < keys; i++ {
		if err := c.Del(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Restart("node1"); err != nil {
		t.Fatal(err)
	}
	// node1 is back; if a key it replicates had survived there as a live
	// value newer than the replayed tombstone, this read would resurrect
	// it. (node1 restarts empty in our process model, but the hint
	// replay path must still deliver tombstones — this asserts the
	// end-to-end outcome either way.)
	for i := 0; i < keys; i++ {
		if v, ok, err := c.Get(key(i)); err != nil || ok {
			t.Fatalf("key %d resurrected after outage delete = (%q, %v, %v)", i, v, ok, err)
		}
	}
}

func key(i int) string { return "key-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i/26)) }

// TestClusterEventTap: lifecycle transitions stream through the tap
// with timestamps, in a plausible order.
func TestClusterEventTap(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	cfg := testConfig(4)
	cfg.Replicas = 3
	cfg.EventTap = func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	c := startCluster(t, cfg)
	if err := c.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill("node2"); err != nil {
		t.Fatal(err)
	}
	c.Probe()
	if err := c.Put("k", "v2"); err != nil { // parks a hint for node2
		t.Fatal(err)
	}
	if err := c.Restart("node2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Join("node4"); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	seen := map[EventType][]Event{}
	for _, e := range events {
		if e.Time.IsZero() {
			t.Errorf("event %v has no timestamp", e)
		}
		seen[e.Type] = append(seen[e.Type], e)
	}
	for _, want := range []EventType{EventKill, EventDown, EventRestart, EventJoin} {
		if len(seen[want]) == 0 {
			t.Errorf("no %q event in stream %v", want, events)
		}
	}
	if es := seen[EventKill]; len(es) > 0 && es[0].Node != "node2" {
		t.Errorf("kill event names %q, want node2", es[0].Node)
	}
	if es := seen[EventJoin]; len(es) > 0 && !strings.Contains(es[0].Detail, "keys moved") {
		t.Errorf("join event detail = %q", es[0].Detail)
	}
}
