package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/sockets"
	"repro/internal/version"
)

// testConfig returns fast-timeout settings so failure paths run in
// milliseconds, not the production defaults.
func testConfig(nodes int) Config {
	return Config{
		Nodes:             nodes,
		VNodes:            32,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  100 * time.Millisecond,
		PoolTimeout:       250 * time.Millisecond,
		PoolAttempts:      2,
		Workers:           4,
	}
}

func startCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestClusterPutGetAcrossNodes(t *testing.T) {
	c := startCluster(t, testConfig(3))
	const keys = 150
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ {
		v, ok, err := c.Get(fmt.Sprintf("key-%d", i))
		if err != nil || !ok || v != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get key-%d = (%q, %v, %v)", i, v, ok, err)
		}
	}
	// Overwrites resolve to the newest version.
	if err := c.Put("key-0", "newer"); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.Get("key-0"); !ok || v != "newer" {
		t.Errorf("overwrite read back (%q, %v)", v, ok)
	}
	if _, ok, err := c.Get("missing"); ok || err != nil {
		t.Errorf("missing key = (found=%v, %v)", ok, err)
	}
	cs := c.Counters()
	if v, _ := cs.Get("cluster.puts"); v != keys+1 {
		t.Errorf("puts counter = %v", v)
	}
	if v, _ := cs.Get("cluster.quorum-failures"); v != 0 {
		t.Errorf("quorum failures on a healthy cluster: %v", v)
	}
	// Every node took some share of the replicated traffic.
	for _, name := range c.Nodes() {
		n, _ := c.lookup(name)
		if n.server().Stats().Requests == 0 {
			t.Errorf("node %s saw no requests: replication not spreading", name)
		}
	}
}

func TestClusterValuesMayContainSpaces(t *testing.T) {
	c := startCluster(t, testConfig(3))
	want := "a value with  spaces and 123"
	if err := c.Put("k", want); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get("k"); err != nil || !ok || v != want {
		t.Fatalf("Get = (%q, %v, %v), want %q", v, ok, err, want)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 2, Replicas: 3}); err == nil {
		t.Error("replicas > nodes must be rejected")
	}
	if _, err := New(Config{Nodes: 3, Replicas: 3, WriteQuorum: 1, ReadQuorum: 1}); err == nil {
		t.Error("W+R <= N must be rejected (no read/write overlap)")
	}
	if _, err := New(Config{Nodes: 3, Replicas: 2, WriteQuorum: 3}); err == nil {
		t.Error("W > replicas must be rejected")
	}
}

// TestClusterReservedKeys: the cluster reserves no key prefix, so a
// key starting hint~ is an ordinary key, and the wire protocol's
// bad-key rules still apply.
func TestClusterReservedKeys(t *testing.T) {
	c := startCluster(t, testConfig(3))
	if err := c.Put("hint~node0~x", "v"); err != nil {
		t.Errorf("put of a hint~ key = %v", err)
	}
	if v, ok, err := c.Get("hint~node0~x"); err != nil || !ok || v != "v" {
		t.Errorf("get of a hint~ key = %q, %v, %v", v, ok, err)
	}
	if err := c.Put("bad key", "v"); !errors.Is(err, sockets.ErrBadKey) {
		t.Errorf("whitespace key error = %v", err)
	}
}

func TestClusterQuorumReadsWithReplicaDown(t *testing.T) {
	// 4 nodes, 3 replicas, W=R=2: killing any single node leaves every
	// key with at least two live replicas.
	cfg := testConfig(4)
	cfg.Replicas = 3
	c := startCluster(t, cfg)
	const keys = 120
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Kill("node1"); err != nil {
		t.Fatal(err)
	}
	c.Probe() // deterministic detection instead of waiting a heartbeat

	for i := 0; i < keys; i++ {
		v, ok, err := c.Get(fmt.Sprintf("key-%d", i))
		if err != nil || !ok || v != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get key-%d with node1 dead = (%q, %v, %v)", i, v, ok, err)
		}
	}
	// Writes keep succeeding too: each key keeps two live replicas, which
	// is W, and node1 counts as a miss.
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("key-%d", i), fmt.Sprintf("val2-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	cs := c.Counters()
	if v, _ := cs.Get("cluster.quorum-failures"); v != 0 {
		t.Errorf("quorum failures with one replica down: %v", v)
	}
	if v, _ := cs.Get("cluster.down-events"); v == 0 {
		t.Error("failure detector never marked node1 down")
	}
}

// TestClusterCatchUpOnRestart: a memory-only node that was down while
// every key it replicates was written comes back empty, and Restart
// returns only after its catch-up has copied all of them from its live
// peers: its own store holds each key, and an anti-entropy pass right
// after the restart has nothing left to repair.
func TestClusterCatchUpOnRestart(t *testing.T) {
	var mu sync.Mutex
	var catchUps []Event
	cfg := testConfig(4)
	cfg.Replicas = 3
	cfg.EventTap = func(e Event) {
		if e.Type == EventCatchUp {
			mu.Lock()
			catchUps = append(catchUps, e)
			mu.Unlock()
		}
	}
	c := startCluster(t, cfg)
	if err := c.Kill("node2"); err != nil {
		t.Fatal(err)
	}
	c.Probe()

	const keys = 80
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Restart("node2"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.SyncNow(context.Background()); err != nil || n != 0 {
		t.Errorf("SyncNow right after Restart repaired %d keys (%v), want 0: the catch-up left work behind", n, err)
	}

	// The restarted node's own store (checked directly, not via quorum)
	// must now hold every key it replicates.
	n, err := c.lookup("node2")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sockets.Dial(n.address())
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	checked := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		if !c.replicaFor(key, "node2") {
			continue
		}
		checked++
		raw, ok, err := direct.Get(key)
		if err != nil || !ok {
			t.Fatalf("restarted node2 missing replicated %s (%v, %v)", key, ok, err)
		}
		if _, v, _, _ := version.Decode(raw); v != fmt.Sprintf("val-%d", i) {
			t.Fatalf("restarted node2 has %s = %q", key, raw)
		}
	}
	if checked == 0 {
		t.Fatal("node2 replicates none of the test keys (vnode spread broken?)")
	}
	// A heartbeat probe may run a catch-up of its own beside Restart's;
	// either way the events report each repaired key once.
	mu.Lock()
	defer mu.Unlock()
	reported := 0
	for _, e := range catchUps {
		var n int
		if _, err := fmt.Sscanf(e.Detail, "%d keys", &n); err != nil || e.Node != "node2" {
			t.Errorf("catch-up event %v, want one for node2 reporting N keys", e)
		}
		reported += n
	}
	if reported != checked {
		t.Errorf("catch-up events %v report %d keys, want %d", catchUps, reported, checked)
	}
}

// TestClusterMovesMatchesDHT: the cluster keeps no per-owner copy of
// its keys, yet Moves() must still count exactly what a db.DHT holding
// the same keys counts — after the writes, after a join, after a leave.
func TestClusterMovesMatchesDHT(t *testing.T) {
	cfg := testConfig(3)
	c := startCluster(t, cfg)
	shadow, err := db.NewDHT(cfg.VNodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		if err := shadow.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string) {
		t.Helper()
		if got, want := c.Moves(), shadow.Moves(); got != want {
			t.Fatalf("after %s: cluster Moves() = %d, DHT Moves() = %d", step, got, want)
		}
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := c.Put(key, "v"); err != nil {
			t.Fatal(err)
		}
		if err := shadow.Put(key, "v"); err != nil {
			t.Fatal(err)
		}
	}
	check("Put 500")
	if err := c.Join("node3"); err != nil {
		t.Fatal(err)
	}
	if err := shadow.AddNode("node3"); err != nil {
		t.Fatal(err)
	}
	check(`Join("node3")`)
	if c.Moves() == 0 {
		t.Fatal("join moved no keys")
	}
	if err := c.Leave("node1"); err != nil {
		t.Fatal(err)
	}
	if err := shadow.RemoveNode("node1"); err != nil {
		t.Fatal(err)
	}
	check(`Leave("node1")`)
}

// TestJoinMovesKeysThisClientNeverWrote: stamped copies SETV'd straight
// to their ring replicas never pass through this client. A Join still
// finds them on the nodes: afterwards the new node holds
// every key the new ring gives it, and Moves() counts what a db.DHT
// holding the same keys counts.
func TestJoinMovesKeysThisClientNeverWrote(t *testing.T) {
	cfg := testConfig(3)
	c := startCluster(t, cfg)
	shadow, err := db.NewDHT(cfg.VNodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		if err := shadow.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	const keys = 300
	want := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("foreign-%d", i)
		want[key] = version.EncodeVector(version.Single("elsewhere", 1), time.Now().UnixNano(), false, "v")
		for _, name := range c.ring.NodesFor(key, c.cfg.Replicas) {
			n, err := c.lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := n.client().SetVCtx(context.Background(), key, want[key]); err != nil {
				t.Fatal(err)
			}
		}
		if err := shadow.Put(key, "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Join("node3"); err != nil {
		t.Fatal(err)
	}
	if err := shadow.AddNode("node3"); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Moves(), shadow.Moves(); got == 0 || got != want {
		t.Fatalf("cluster Moves() = %d, DHT Moves() = %d", got, want)
	}
	fresh, err := c.lookup("node3")
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	for key, enc := range want {
		c.topoMu.RLock()
		replicas := c.ring.NodesFor(key, c.cfg.Replicas)
		c.topoMu.RUnlock()
		for _, name := range replicas {
			if name != fresh.name {
				continue
			}
			held++
			if got, ok, err := fresh.client().Get(key); err != nil || !ok || got != enc {
				t.Fatalf("node3 holds %s = %q (%v, %v), want the stamped copy", key, got, ok, err)
			}
		}
	}
	if held == 0 {
		t.Fatal("the new ring gives node3 none of the keys")
	}
}

func TestClusterJoinMovesOnlyArcKeys(t *testing.T) {
	c := startCluster(t, testConfig(3))
	const keys = 300
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("key-%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Moves()
	if before != 0 {
		t.Fatalf("moves before any topology change = %d", before)
	}
	if err := c.Join("node3"); err != nil {
		t.Fatal(err)
	}
	moved := c.Moves() - before
	// The new node owns ~1/4 of the ring: ~K/4 primary arcs move. Allow
	// 2x slack but fail if half the keyspace relocated.
	if moved == 0 {
		t.Error("join moved no keys")
	}
	if moved > keys/2 {
		t.Errorf("join moved %d of %d keys, want ~%d (consistent hashing broken)", moved, keys, keys/4)
	}
	if v, _ := c.Counters().Get("cluster.keys-migrated"); v == 0 {
		t.Error("no replica copies migrated over the wire")
	}
	// Every key still reads back through the new topology.
	for i := 0; i < keys; i++ {
		if _, ok, err := c.Get(fmt.Sprintf("key-%d", i)); !ok || err != nil {
			t.Fatalf("key-%d lost after join (%v, %v)", i, ok, err)
		}
	}
	if got := len(c.Nodes()); got != 4 {
		t.Errorf("nodes after join = %d", got)
	}
}

func TestClusterLeaveKeepsData(t *testing.T) {
	cfg := testConfig(4)
	cfg.Replicas = 2
	cfg.WriteQuorum = 2
	cfg.ReadQuorum = 1
	c := startCluster(t, cfg)
	const keys = 200
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Leave("node0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		v, ok, err := c.Get(fmt.Sprintf("key-%d", i))
		if err != nil || !ok || v != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get key-%d after leave = (%q, %v, %v)", i, v, ok, err)
		}
	}
	if got := len(c.Nodes()); got != 3 {
		t.Errorf("nodes after leave = %d", got)
	}
	// Dropping below the replica count is refused.
	cfg2 := testConfig(2)
	cfg2.Replicas = 2
	c2 := startCluster(t, cfg2)
	if err := c2.Leave("node0"); err == nil {
		t.Error("leave below replica count must be rejected")
	}
}

func TestClusterJoinValidation(t *testing.T) {
	c := startCluster(t, testConfig(3))
	if err := c.Join("node0"); err == nil {
		t.Error("duplicate join must fail")
	}
	if err := c.Join("bad name"); err == nil {
		t.Error("whitespace node name must fail")
	}
	if err := c.Join("tilde~node"); err != nil {
		t.Errorf("'~' in a node name must be accepted; Join = %v", err)
	}
	if err := c.Join("\x01bad"); err == nil {
		t.Error("control byte in node name must fail: it could start like a version stamp")
	}
}

func TestClusterReportListsNodesAndCounters(t *testing.T) {
	c := startCluster(t, testConfig(3))
	if err := c.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	for _, want := range []string{"node0", "node1", "node2", "cluster.puts", "antientropy.keys-repaired", "p50"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if err := c.Kill("node1"); err != nil {
		t.Fatal(err)
	}
	if rep := c.Report(); !strings.Contains(rep, "dead") {
		t.Errorf("report does not flag the killed node:\n%s", rep)
	}
}

func TestClusterClosedOps(t *testing.T) {
	c, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
	if err := c.Put("k", "v"); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after close = %v", err)
	}
	if _, _, err := c.Get("k"); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after close = %v", err)
	}
	if err := c.Join("late"); !errors.Is(err, ErrClosed) {
		t.Errorf("Join after close = %v", err)
	}
}

// TestClusterBinaryProto runs the topology lifecycle — replicated
// writes, a dead replica missing them, its catch-up on restart (a
// Merkle walk with batched MGETs), and a join migrating arcs (batched
// version-gated copies) — over the binary inter-node pools. Servers negotiate per connection,
// so heartbeat probes (lab text PINGs) coexist with the binary request
// pools on the same listeners.
func TestClusterBinaryProto(t *testing.T) {
	cfg := testConfig(4)
	cfg.Replicas = 3
	c := startCluster(t, cfg)

	const keys = 120
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Kill("node2"); err != nil {
		t.Fatal(err)
	}
	c.Probe()
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("key-%d", i), fmt.Sprintf("v2-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Restart("node2"); err != nil {
		t.Fatal(err)
	}
	if repaired, _ := c.Counters().Get("antientropy.keys-repaired"); repaired == 0 {
		t.Error("restart's catch-up repaired nothing over the binary protocol")
	}

	if err := c.Join("node4"); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Counters().Get("cluster.keys-migrated"); v == 0 {
		t.Error("no replica copies migrated over the binary protocol")
	}
	for i := 0; i < keys; i++ {
		v, ok, err := c.Get(fmt.Sprintf("key-%d", i))
		if err != nil || !ok || v != fmt.Sprintf("v2-%d", i) {
			t.Fatalf("Get key-%d after lifecycle = (%q, %v, %v)", i, v, ok, err)
		}
	}
}

// TestVerbCensus_NoBlindReplicaWrites records every verb the servers
// serve across puts and deletes with a replica down, a restart with
// its catch-up, a Join, a Leave and an anti-entropy pass. Every replica
// copy — quorum write, migration copy, repair — must go through a
// version-checked verb: the cluster never sends a blind SET or MPUT.
// And SCAN is the one way the cluster lists a node's keys: anti-entropy
// and migration page through it, and no KEYS is served.
func TestVerbCensus_NoBlindReplicaWrites(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[string]int)
	cfg := testConfig(4)
	cfg.Replicas = 3
	cfg.ServerPreHandle = func(string) func(verb, key string) func() {
		return func(verb, _ string) func() {
			mu.Lock()
			seen[verb]++
			mu.Unlock()
			return nil
		}
	}
	c := startCluster(t, cfg)

	const keys = 60
	want := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("census-%02d", i)
		if err := c.Put(k, "v1"); err != nil {
			t.Fatal(err)
		}
		want[k] = "v1"
	}
	if err := c.Kill("node1"); err != nil {
		t.Fatal(err)
	}
	c.Probe()
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("census-%02d", i)
		if i%3 == 0 {
			if err := c.Del(k); err != nil {
				t.Fatal(err)
			}
			delete(want, k)
			continue
		}
		if err := c.Put(k, "v2"); err != nil {
			t.Fatal(err)
		}
		want[k] = "v2"
	}
	if err := c.Restart("node1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Join("node4"); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave("node0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	census := fmt.Sprint(seen)
	blind := seen["SET"] + seen["MPUT"]
	listed, scans := seen["KEYS"], seen["SCAN"]
	premise := seen["SETV"] > 0 && seen["SYNCWAL"] > 0
	mu.Unlock()
	if blind != 0 {
		t.Errorf("cluster sent %d blind SET/MPUT requests: %s", blind, census)
	}
	if listed != 0 || scans == 0 {
		t.Errorf("cluster listed keys with %d KEYS and %d SCAN requests, want SCAN only: %s", listed, scans, census)
	}
	// The premise: catch-up repairs, migration copies and repairs all
	// happened.
	if c.aeKeysRepaired.Load() == 0 || c.keysMigrated.Load() == 0 || !premise {
		t.Fatalf("premise broken: repaired=%d migrated=%d census=%s",
			c.aeKeysRepaired.Load(), c.keysMigrated.Load(), census)
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("census-%02d", i)
		v, found, err := c.Get(k)
		if err != nil || found != (want[k] != "") || v != want[k] {
			t.Fatalf("Get(%s) = %q, %v, %v; want %q", k, v, found, err, want[k])
		}
	}
}
