package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/merkle"
	"repro/internal/sockets/wire"
)

// TestSyncWAL_StreamingRereplication is the disk-loss recovery path:
// a durable node is killed, its log directory wiped, and it restarts
// empty. With the divergence threshold set low, the next anti-entropy
// pass must re-replicate it by streaming a peer's WAL — not key-by-key
// span repair — and the rebuilt replica must be byte-identical to its
// peers, Merkle-certified, including tombstones.
func TestSyncWAL_StreamingRereplication(t *testing.T) {
	c, err := New(Config{
		Nodes: 3, Replicas: 3, WriteQuorum: 3, ReadQuorum: 1,
		Durable: true, DisableHints: true,
		WALSegmentBytes:     4096, // several sealed segments, so the dump walks a real chain
		SyncStreamThreshold: 0.01,
		DrainTimeout:        50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const keys = 300
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d-%s", i, strings.Repeat("x", 40))); err != nil {
			t.Fatal(err)
		}
	}
	// A slice of deletes: tombstones must survive the stream too, or the
	// wiped node would resurrect them on its next quorum read.
	for i := 0; i < keys; i += 10 {
		if err := c.Del(fmt.Sprintf("key-%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	if err := c.Kill("node2"); err != nil {
		t.Fatal(err)
	}
	if err := c.WipeWAL("node2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart("node2"); err != nil {
		t.Fatal(err)
	}
	n2, _ := c.lookup("node2")
	if got, err := n2.client().Count(); err != nil || got != 0 {
		t.Fatalf("wiped node holds %d keys (err %v), want 0 before sync", got, err)
	}

	syncUntilQuiet(t, c, 6)

	if c.AntiEntropyStreams() == 0 {
		t.Fatal("antientropy.streams = 0: near-total divergence did not take the WAL-streaming path")
	}
	if c.AntiEntropyStreamBytes() == 0 {
		t.Error("antientropy.stream-bytes not accounted")
	}

	// Byte-identical per the Merkle digest: the rebuilt node's full-tree
	// root must match a healthy peer's.
	n0, _ := c.lookup("node0")
	full := []wire.Span{{Lo: 0, Hi: merkle.Buckets}}
	root0, err := n0.client().TreeCtx(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	root2, err := n2.client().TreeCtx(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	if len(root0) != 1 || len(root2) != 1 || root0[0] != root2[0] {
		t.Fatalf("merkle roots diverge after streaming re-replication: %v vs %v", root0, root2)
	}
	// And the data is actually right, not just self-consistent.
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		v, ok, err := c.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if ok {
				t.Fatalf("%s: deleted key resurrected as %q", key, v)
			}
			continue
		}
		if !ok || !strings.HasPrefix(v, fmt.Sprintf("val-%d-", i)) {
			t.Fatalf("%s = (%q, %v) after re-replication", key, v, ok)
		}
	}
}

// TestSyncWAL_StreamingRequiresOptIn checks the gate: with the
// threshold disabled, even a wiped node stays on the Merkle span-repair
// path.
func TestSyncWAL_StreamingRequiresOptIn(t *testing.T) {
	c, err := New(Config{
		Nodes: 3, Replicas: 3, WriteQuorum: 3, ReadQuorum: 1,
		Durable: true, DisableHints: true,
		SyncStreamThreshold: -1, // explicitly disabled
		DrainTimeout:        50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const keys = 120
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Kill("node1"); err != nil {
		t.Fatal(err)
	}
	if err := c.WipeWAL("node1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart("node1"); err != nil {
		t.Fatal(err)
	}

	syncUntilQuiet(t, c, 6)
	if c.AntiEntropyStreams() != 0 {
		t.Fatalf("antientropy.streams = %d with streaming disabled, want 0", c.AntiEntropyStreams())
	}
	n1, _ := c.lookup("node1")
	if got, err := n1.client().Count(); err != nil || got != keys {
		t.Fatalf("span repair rebuilt %d keys (err %v), want %d", got, err, keys)
	}
}

// TestWipeWAL_Refusals pins the helper's guard rails: memory-only
// clusters have nothing to wipe, and a live node's directory belongs to
// its server.
func TestWipeWAL_Refusals(t *testing.T) {
	mem, err := New(Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if err := mem.WipeWAL("node0"); err == nil || !strings.Contains(err.Error(), "not durable") {
		t.Fatalf("WipeWAL on memory-only cluster: %v, want not-durable refusal", err)
	}
	if _, err := mem.WALDir("node0"); err == nil {
		t.Fatal("WALDir on memory-only cluster must refuse")
	}

	dur, err := New(Config{Nodes: 3, Durable: true, DrainTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	if err := dur.WipeWAL("node0"); err == nil || !strings.Contains(err.Error(), "live") {
		t.Fatalf("WipeWAL on live node: %v, want refusal", err)
	}
	if err := dur.WipeWAL("nosuch"); err == nil {
		t.Fatal("WipeWAL on unknown node must refuse")
	}
}

// verbServed sums one verb's server-side request count across every
// node — the ground truth for read-amplification accounting, immune to
// client-side retry noise.
func verbServed(c *Cluster, verb string) int64 {
	c.topoMu.RLock()
	nodes := make([]*node, 0, len(c.order))
	for _, name := range c.order {
		nodes = append(nodes, c.nodes[name])
	}
	c.topoMu.RUnlock()
	var total int64
	for _, n := range nodes {
		if h := n.server().VerbLatency(verb); h != nil {
			total += h.Count()
		}
	}
	return total
}

// TestMigrationBatching_ReadAmplification pins the migration copy
// phase's read pattern: sources are read with one bulk MGET per chunk,
// never one GET per (key, source). Before the fix a Join issued
// moves × |sources| GETs; now the GET verb must not be served at all
// during the migration, and the MGET count stays far under one per
// moved key.
func TestMigrationBatching_ReadAmplification(t *testing.T) {
	var mu sync.Mutex
	moved := -1
	c, err := New(Config{
		Nodes: 3, Replicas: 3, WriteQuorum: 3, ReadQuorum: 1,
		DisableHints: true,
		EventTap: func(e Event) {
			if e.Type == EventJoin {
				mu.Lock()
				fmt.Sscanf(e.Detail, "%d keys moved", &moved) //nolint:errcheck // checked below
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const keys = 200
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	getsBefore := verbServed(c, "GET")
	mgetsBefore := verbServed(c, "MGET")

	if err := c.Join("node3"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	movedKeys := moved
	mu.Unlock()
	if movedKeys <= 0 {
		t.Fatalf("join moved %d keys, expected a real migration", movedKeys)
	}

	getDelta := verbServed(c, "GET") - getsBefore
	mgetDelta := verbServed(c, "MGET") - mgetsBefore
	if getDelta != 0 {
		t.Errorf("migration served %d per-key GETs, want 0 (reads must batch as MGETs)", getDelta)
	}
	if mgetDelta >= int64(movedKeys) {
		t.Errorf("migration served %d MGETs for %d moved keys — read amplification, want O(sources × chunks)", mgetDelta, movedKeys)
	}

	// The batching must not have changed what migration means: every key
	// still reads back correctly on the new topology.
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		v, ok, err := c.Get(key)
		if err != nil || !ok || v != fmt.Sprintf("val-%d", i) {
			t.Fatalf("%s = (%q, %v, %v) after join", key, v, ok, err)
		}
	}
}
