package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sockets"
	"repro/internal/version"
)

// durableConfig is testConfig plus per-node WALs and a fast hint TTL
// left at the default (tests that need expiry override it).
func durableConfig(nodes int) Config {
	cfg := testConfig(nodes)
	cfg.Durable = true
	return cfg
}

// TestClusterCounters_WALAppendsAndSyncs: Counters sums every node's WAL
// appends and fsyncs, so a cluster run shows its group-commit ratio. On
// a durable cluster taking concurrent puts both are nonzero and appends
// are at least syncs (an fsync covers one record or more); a
// memory-only cluster reports zero for both.
func TestClusterCounters_WALAppendsAndSyncs(t *testing.T) {
	c := startCluster(t, durableConfig(3))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := c.Put(fmt.Sprintf("w%d-%02d", w, i), "v"); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	cs := c.Counters()
	appends, _ := cs.Get("wal.appends")
	syncs, _ := cs.Get("wal.syncs")
	t.Logf("%v appends in %v fsyncs across 3 nodes", appends, syncs)
	if appends < 200 || syncs == 0 || appends < syncs {
		t.Fatalf("wal.appends = %v, wal.syncs = %v; want an append per put at least, nonzero syncs, appends >= syncs", appends, syncs)
	}

	mem := startCluster(t, testConfig(3))
	if err := mem.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	mc := mem.Counters()
	if a, _ := mc.Get("wal.appends"); a != 0 {
		t.Fatalf("memory-only cluster wal.appends = %v, want 0", a)
	}
	if s, _ := mc.Get("wal.syncs"); s != 0 {
		t.Fatalf("memory-only cluster wal.syncs = %v, want 0", s)
	}
}

// TestClusterDurableRestart_NoHintReplayForAckedData is the
// acceptance-criteria check at the cluster level: a durable node killed
// (kill -9 semantics) and restarted recovers every write it acked from
// its own WAL — the EventRestart payload reports the count — and hint
// replay contributes nothing, because nothing was written while it was
// down.
func TestClusterDurableRestart_NoHintReplayForAckedData(t *testing.T) {
	var events []Event
	var evMu sync.Mutex
	cfg := durableConfig(3)
	cfg.EventTap = func(e Event) {
		evMu.Lock()
		events = append(events, e)
		evMu.Unlock()
	}
	c := startCluster(t, cfg)

	const keys = 80
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("key-%03d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := c.Kill("node1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart("node1"); err != nil {
		t.Fatal(err)
	}

	n, err := c.lookup("node1")
	if err != nil {
		t.Fatal(err)
	}
	recovered := n.server().RecoveredKeys()
	if recovered == 0 {
		t.Fatal("durable node came back empty: WAL recovery did not run")
	}
	evMu.Lock()
	var restartDetail string
	for _, e := range events {
		if e.Type == EventRestart && e.Node == "node1" {
			restartDetail = e.Detail
		}
	}
	evMu.Unlock()
	if want := fmt.Sprintf("recovered %d keys", recovered); restartDetail != want {
		t.Fatalf("EventRestart detail = %q, want %q", restartDetail, want)
	}
	if got := c.hintsReplayed.Load(); got != 0 {
		t.Fatalf("hints replayed = %d for pre-crash acked data; WAL recovery should have made replay unnecessary", got)
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v, found, err := c.Get(k)
		if err != nil || !found || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) = %q, %v, %v after durable restart", k, v, found, err)
		}
	}
}

// TestClusterDurableRestart_HintsTopUpSuffix: writes that land while a
// durable node is dead arrive as hints; after Restart the node holds
// its WAL-recovered prefix AND the hinted suffix.
func TestClusterDurableRestart_HintsTopUpSuffix(t *testing.T) {
	c := startCluster(t, durableConfig(3))

	for i := 0; i < 40; i++ {
		if err := c.Put(fmt.Sprintf("pre-%03d", i), "old"); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := c.Kill("node2"); err != nil {
		t.Fatal(err)
	}
	c.Probe() // mark it down so the suffix writes hint instead of timing out
	for i := 0; i < 20; i++ {
		if err := c.Put(fmt.Sprintf("post-%03d", i), "new"); err != nil {
			t.Fatalf("Put while node down: %v", err)
		}
	}
	if err := c.Restart("node2"); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 40; i++ {
		if v, found, err := c.Get(fmt.Sprintf("pre-%03d", i)); err != nil || !found || v != "old" {
			t.Fatalf("pre-crash key lost: %q, %v, %v", v, found, err)
		}
	}
	for i := 0; i < 20; i++ {
		if v, found, err := c.Get(fmt.Sprintf("post-%03d", i)); err != nil || !found || v != "new" {
			t.Fatalf("while-down key lost: %q, %v, %v", v, found, err)
		}
	}
}

// TestHintTTL_ExpiresParkedHints: hints for a destination that never
// comes back are swept once they outlive HintTTL — the hint~ keyspace
// stops growing without bound — and the drops are counted.
func TestHintTTL_ExpiresParkedHints(t *testing.T) {
	cfg := testConfig(4) // a 4th node gives hints a fallback to park on
	cfg.Replicas = 3
	cfg.HintTTL = 250 * time.Millisecond
	c := startCluster(t, cfg)

	if err := c.Kill("node2"); err != nil {
		t.Fatal(err)
	}
	c.Probe() // mark it down: writes to its arcs start hinting
	const keys = 30
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("key-%03d", i), "v"); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if c.hintedWrites.Load() == 0 {
		t.Fatal("no hinted writes parked; test premise broken")
	}

	// Wait out the TTL plus a couple of sweep intervals (TTL/4 each,
	// floored at the heartbeat interval).
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if c.HintsExpired() > 0 && countParkedHints(t, c) == 0 {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if got := c.HintsExpired(); got == 0 {
		t.Fatal("hints.expired stayed 0: TTL sweep never dropped the parked hints")
	}
	if got := countParkedHints(t, c); got != 0 {
		t.Fatalf("%d hint~ keys still parked after TTL expiry", got)
	}
	// The counter surfaces through the report under the satellite's
	// required name.
	if v, ok := c.Counters().Get("hints.expired"); !ok || v == 0 {
		t.Fatal(`Counters()["hints.expired"] missing or 0 after expiries`)
	}
}

// countParkedHints sums hint~ keys across live nodes.
func countParkedHints(t *testing.T, c *Cluster) int {
	t.Helper()
	c.topoMu.RLock()
	nodes := make([]*node, 0, len(c.order))
	for _, name := range c.order {
		nodes = append(nodes, c.nodes[name])
	}
	c.topoMu.RUnlock()
	total := 0
	for _, n := range nodes {
		if n.killed.Load() {
			continue
		}
		keys, err := labKeys(n)
		if err != nil {
			continue
		}
		for _, k := range keys {
			if strings.HasPrefix(k, hintMark) {
				total++
			}
		}
	}
	return total
}

// labKeys lists every key n stores with the lab Client's text KEYS.
func labKeys(n *node) ([]string, error) {
	lab, err := sockets.Dial(n.address())
	if err != nil {
		return nil, err
	}
	defer lab.Close()
	return lab.Keys()
}

// TestHintTTL_DisabledKeepsHints: a negative TTL turns expiry off —
// the pre-TTL behavior is still reachable for experiments.
func TestHintTTL_DisabledKeepsHints(t *testing.T) {
	cfg := testConfig(4)
	cfg.Replicas = 3
	cfg.HintTTL = -1
	c := startCluster(t, cfg)

	if err := c.Kill("node2"); err != nil {
		t.Fatal(err)
	}
	c.Probe()
	for i := 0; i < 10; i++ {
		if err := c.Put(fmt.Sprintf("key-%03d", i), "v"); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if c.hintedWrites.Load() == 0 {
		t.Fatal("no hinted writes parked; test premise broken")
	}
	time.Sleep(150 * time.Millisecond) // several heartbeat intervals
	if got := c.HintsExpired(); got != 0 {
		t.Fatalf("hints expired with TTL disabled: %d", got)
	}
	if got := countParkedHints(t, c); got == 0 {
		t.Fatal("parked hints vanished with TTL disabled")
	}
}

// hintTestCluster starts a 4-node, 3-replica cluster — so every key has
// one fallback to park hints on — and returns it with node1 killed and
// marked down. The heartbeat never ticks, so the only hint replay is
// the one Restart runs, and the counters are final when it returns.
func hintTestCluster(t *testing.T) (c *Cluster, target *node) {
	t.Helper()
	cfg := testConfig(4)
	cfg.Replicas = 3
	cfg.HeartbeatInterval = time.Hour
	c = startCluster(t, cfg)
	target, err := c.lookup("node1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(target.name); err != nil {
		t.Fatal(err)
	}
	c.Probe()
	return c, target
}

// TestHintNeverRegresses: two writes to one key miss a down replica and
// park their hints on the same holder, the newer one first. The older
// hint lands second and must not overwrite the newer one, so the
// replica comes back holding the newer write.
func TestHintNeverRegresses(t *testing.T) {
	c, target := hintTestCluster(t)
	holder, err := c.lookup("node0")
	if err != nil {
		t.Fatal(err)
	}
	older := version.Bump("", "node0")
	now := time.Now().UnixNano()
	encOld := version.EncodeVector(older, now, false, "old")
	encNew := version.EncodeVector(version.Bump(older, "node0"), now, false, "new")
	const key = "contested"
	for _, enc := range []string{encNew, encOld} {
		if !c.writeReplica(context.Background(), key, enc, target, []*node{holder}, nil) {
			t.Fatal("hint not parked")
		}
	}
	if got, _, err := holder.client().Get(hintKey(target.name, key)); err != nil || got != encNew {
		t.Fatalf("holder keeps %q (%v), want the newer hint", got, err)
	}
	if err := c.Restart(target.name); err != nil {
		t.Fatal(err)
	}
	if got, _, err := target.client().Get(key); err != nil || got != encNew {
		t.Fatalf("replica holds %q (%v) after replay, want the newer write", got, err)
	}
}

// TestHintReplay_MoreThanAFrame: over 1 MiB of 1 KiB hints parked on
// one holder replay completely; the replay reads them in chunks, so no
// reply outgrows a wire frame.
func TestHintReplay_MoreThanAFrame(t *testing.T) {
	c, target := hintTestCluster(t)
	holder, err := c.lookup("node0")
	if err != nil {
		t.Fatal(err)
	}
	const hints = 1200
	value := strings.Repeat("x", 1024)
	vec := version.Bump("", "node0")
	for i := 0; i < hints; i++ {
		enc := version.EncodeVector(vec, time.Now().UnixNano(), false, value)
		if !c.writeReplica(context.Background(), fmt.Sprintf("big-%04d", i), enc, target, []*node{holder}, nil) {
			t.Fatalf("hint %d not parked", i)
		}
	}
	if err := c.Restart(target.name); err != nil {
		t.Fatal(err)
	}
	if got := c.hintsReplayed.Load(); got != hints {
		t.Fatalf("replayed %d hints, want %d", got, hints)
	}
	if n, err := target.client().Count(); err != nil || n != hints {
		t.Fatalf("restarted replica holds %d keys (%v), want %d", n, err, hints)
	}
	if n := countParkedHints(t, c); n != 0 {
		t.Fatalf("%d hints still parked after replay", n)
	}
}

// TestHintReplay_HolderPastAFrameOfKeys: the holder of the parked hints
// also stores more than 1 MiB of key names. Listing all of them in one
// reply would outgrow a wire frame; hint discovery pages only the
// holder's hints, so restart still replays every one.
func TestHintReplay_HolderPastAFrameOfKeys(t *testing.T) {
	c, target := hintTestCluster(t)
	holder, err := c.lookup("node0")
	if err != nil {
		t.Fatal(err)
	}
	filler := make([]sockets.KV, 5000) // 250-byte names: about 1.25 MiB
	stamped := version.Encode(version.Version{VV: version.Vector{"node0": 1}, Clock: 1}, "v")
	for i := range filler {
		filler[i] = sockets.KV{Key: fmt.Sprintf("filler-%0243d", i), Value: stamped}
	}
	if err := holder.client().MPut(filler); err != nil {
		t.Fatal(err)
	}
	const hints = 50
	vec := version.Bump("", "node0")
	want := make(map[string]string, hints)
	for i := 0; i < hints; i++ {
		key := fmt.Sprintf("parked-%02d", i)
		want[key] = version.EncodeVector(vec, time.Now().UnixNano(), false, "v")
		if !c.writeReplica(context.Background(), key, want[key], target, []*node{holder}, nil) {
			t.Fatalf("hint %d not parked", i)
		}
	}
	if err := c.Restart(target.name); err != nil {
		t.Fatal(err)
	}
	if got := c.hintsReplayed.Load(); got != hints {
		t.Fatalf("replayed %d hints, want %d", got, hints)
	}
	for key, enc := range want {
		if got, ok, err := target.client().Get(key); err != nil || !ok || got != enc {
			t.Fatalf("replica holds %s = %q (%v, %v) after replay", key, got, ok, err)
		}
	}
}

// TestHintReplay_ReparkSurvives: a newer hint parked for the same key
// between a replay's read of the older hint and the replay's delete of
// it must survive. The holder's MDEL is held until the newer hint is in
// place; the delete carries the stamp the replay read, so it leaves the
// newer hint parked, and the next replay delivers it.
func TestHintReplay_ReparkSurvives(t *testing.T) {
	var armed atomic.Bool
	stalled, release := make(chan struct{}), make(chan struct{})
	cfg := testConfig(3)
	cfg.HeartbeatInterval = time.Hour // no probe or sweep races the replays below
	cfg.ServerPreHandle = func(string) func(verb, key string) func() {
		return func(verb, _ string) func() {
			if verb != "MDEL" || !armed.CompareAndSwap(true, false) {
				return nil
			}
			return func() {
				close(stalled)
				<-release
			}
		}
	}
	c := startCluster(t, cfg)
	holder, err := c.lookup("node0")
	if err != nil {
		t.Fatal(err)
	}
	dest, err := c.lookup("node1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const key = "reparked"
	hk := hintKey(dest.name, key)
	now := time.Now().UnixNano()
	older := version.Encode(version.Version{VV: version.Vector{"node2": 1}, Clock: now}, "v1")
	newer := version.Encode(version.Version{VV: version.Vector{"node2": 2}, Clock: now + 1}, "v2")
	if _, err := holder.client().SetVCtx(ctx, hk, older); err != nil {
		t.Fatal(err)
	}

	armed.Store(true)
	replayed := make(chan int)
	go func() { replayed <- c.replayHints(ctx, dest) }()
	select {
	case <-stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("the replay never reached its MDEL")
	}
	if code, err := holder.client().SetVCtx(ctx, hk, newer); err != nil || !sockets.SetVAppliedCode(code) {
		t.Fatalf("parking the newer hint = %d, %v", code, err)
	}
	close(release)
	if n := <-replayed; n != 1 {
		t.Fatalf("first replay applied %d hints, want 1", n)
	}
	if v, ok, err := holder.client().GetCtx(ctx, hk); err != nil || !ok || v != newer {
		t.Fatalf("parked hint after the first replay = %q, %v, %v; want the newer hint", v, ok, err)
	}

	if n := c.replayHints(ctx, dest); n != 1 {
		t.Fatalf("second replay applied %d hints, want 1", n)
	}
	if v, ok, err := dest.client().GetCtx(ctx, key); err != nil || !ok || v != newer {
		t.Fatalf("replica holds %q, %v, %v; want the newer hint's write", v, ok, err)
	}
	if _, ok, err := holder.client().GetCtx(ctx, hk); err != nil || ok {
		t.Fatalf("replayed hint still parked (%v, %v)", ok, err)
	}
}
