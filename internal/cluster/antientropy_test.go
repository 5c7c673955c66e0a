package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/sockets"
	"repro/internal/version"
)

// syncUntilQuiet drives SyncNow until a pass repairs nothing, returning
// the total repaired count. Fails the test if convergence takes more
// than rounds passes — anti-entropy must converge, not oscillate.
func syncUntilQuiet(t *testing.T, c *Cluster, rounds int) int {
	t.Helper()
	total := 0
	for i := 0; i < rounds; i++ {
		n, err := c.SyncNow(context.Background())
		if err != nil {
			t.Fatalf("SyncNow: %v", err)
		}
		if n == 0 {
			return total
		}
		total += n
	}
	t.Fatalf("anti-entropy did not converge within %d passes", rounds)
	return total
}

// TestAntiEntropy_RepairsDeletedCopies diverges one replica by deleting
// a slice of its copies behind the cluster's back, then checks one sync
// pass restores exactly those copies byte-identically.
func TestAntiEntropy_RepairsDeletedCopies(t *testing.T) {
	c, err := New(Config{Nodes: 3, Replicas: 3, WriteQuorum: 3, ReadQuorum: 1})
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
	victim, _ := c.lookup("node1")
	witness, _ := c.lookup("node0")
	var lost []sockets.KV
	for i := 0; i < 50; i++ {
		lost = append(lost, sockets.KV{Key: fmt.Sprintf("key-%d", i)})
	}
	if _, err := victim.client().MDelCtx(context.Background(), lost); err != nil {
		t.Fatal(err)
	}

	repaired := syncUntilQuiet(t, c, 5)
	if repaired != len(lost) {
		t.Errorf("repaired %d copies, want exactly %d (sync must move only the divergence)", repaired, len(lost))
	}
	for _, del := range lost {
		key := del.Key
		want, ok1, err1 := witness.client().GetCtx(context.Background(), key)
		got, ok2, err2 := victim.client().GetCtx(context.Background(), key)
		if err1 != nil || err2 != nil || !ok1 || !ok2 {
			t.Fatalf("%s after repair: witness (%v,%v) victim (%v,%v)", key, ok1, err1, ok2, err2)
		}
		if got != want {
			t.Fatalf("%s repaired copy = %q, want byte-identical %q", key, got, want)
		}
	}
	if c.AntiEntropyRepaired() != int64(len(lost)) {
		t.Errorf("antientropy.keys-repaired = %d, want %d", c.AntiEntropyRepaired(), len(lost))
	}
	if c.AntiEntropyBytes() == 0 {
		t.Error("antientropy.bytes not accounted")
	}
}

// TestAntiEntropy_HealsRestartedNode is the convergence path the
// heal-converge chaos scenario depends on: a memory-only node that
// restarts empty is rebuilt entirely by anti-entropy, its catch-up,
// before Restart returns.
func TestAntiEntropy_HealsRestartedNode(t *testing.T) {
	c, err := New(Config{
		Nodes: 3, Replicas: 3, WriteQuorum: 2, ReadQuorum: 2,
		DrainTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const keys = 100
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Kill("node2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart("node2"); err != nil {
		t.Fatal(err)
	}
	n, _ := c.lookup("node2")
	if got, err := n.client().Count(); err != nil || got != keys {
		t.Fatalf("restarted node holds %d keys after its catch-up (err %v), want %d", got, err, keys)
	}
	if got := c.AntiEntropyRepaired(); got != keys {
		t.Fatalf("antientropy.keys-repaired = %d, want %d: the catch-up copied each key once", got, keys)
	}
	syncUntilQuiet(t, c, 1)
}

// TestAntiEntropy_ConcurrentVersionsConvergeDeterministically injects
// two causally concurrent versions of one key onto different replicas —
// the divergence a partition produces — and checks every replica
// converges to the same winner: the one the deterministic tiebreak
// picks, byte-identical everywhere.
func TestAntiEntropy_ConcurrentVersionsConvergeDeterministically(t *testing.T) {
	c, err := New(Config{Nodes: 3, Replicas: 3, WriteQuorum: 3, ReadQuorum: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put("k", "base"); err != nil {
		t.Fatal(err)
	}
	n0, _ := c.lookup("node0")
	raw, ok, err := n0.client().GetCtx(context.Background(), "k")
	if err != nil || !ok {
		t.Fatalf("base read: %v %v", ok, err)
	}
	base, _, _, err := version.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	// Two successors of base bumped in different coordinator slots:
	// incomparable vectors, resolved by the clock tiebreak (vb wins).
	va := base.Next("cA", 100)
	vb := base.Next("cB", 200)
	if va.Compare(vb) != version.Concurrent {
		t.Fatalf("injected versions compare %v, want concurrent", va.Compare(vb))
	}
	n1, _ := c.lookup("node1")
	if _, err := n0.client().SetVCtx(context.Background(), "k", version.Encode(va, "value-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.client().SetVCtx(context.Background(), "k", version.Encode(vb, "value-b")); err != nil {
		t.Fatal(err)
	}

	syncUntilQuiet(t, c, 5)
	want := version.Encode(vb, "value-b")
	for _, name := range c.Nodes() {
		n, _ := c.lookup(name)
		got, ok, err := n.client().GetCtx(context.Background(), "k")
		if err != nil || !ok {
			t.Fatalf("%s read after sync: %v %v", name, ok, err)
		}
		if got != want {
			t.Fatalf("%s converged to %q, want tiebreak winner %q", name, got, want)
		}
	}
	if v, ok, err := c.Get("k"); err != nil || !ok || v != "value-b" {
		t.Fatalf("cluster read after convergence = (%q, %v, %v), want value-b", v, ok, err)
	}
}

// TestReadRepair_RewritesStaleReplica knocks one replica's copy out
// behind the cluster's back and checks a full-set quorum read (R =
// Replicas, so the stale replica must answer) repairs it in the
// background.
func TestReadRepair_RewritesStaleReplica(t *testing.T) {
	c, err := New(Config{Nodes: 3, Replicas: 3, WriteQuorum: 3, ReadQuorum: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	victim, _ := c.lookup("node1")
	if _, err := victim.client().MDelCtx(context.Background(), []sockets.KV{{Key: "k"}}); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get("k"); err != nil || !ok || v != "v" {
		t.Fatalf("quorum read with one stale replica = (%q, %v, %v)", v, ok, err)
	}
	// The repair (and its counter bump) is asynchronous; poll for both.
	deadline := time.Now().Add(2 * time.Second)
	for {
		raw, ok, err := victim.client().GetCtx(context.Background(), "k")
		if err == nil && ok && c.ReadRepairs() > 0 {
			if _, v, _, err := version.Decode(raw); err != nil || v != "v" {
				t.Fatalf("repaired copy decodes to (%q, %v)", v, err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("read repair never restored the stale copy (ok=%v repairs=%d)", ok, c.ReadRepairs())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
