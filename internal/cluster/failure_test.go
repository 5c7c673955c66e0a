package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/testutil"
)

// TestClusterKillMidLoadIntegration is the failure-path integration
// test: a node dies in the middle of concurrent load, quorum traffic
// keeps succeeding, the node restarts and catches up from its peers,
// and tearing the whole cluster down leaks no goroutines.
func TestClusterKillMidLoadIntegration(t *testing.T) {
	base := testutil.SettleGoroutines()

	cfg := testConfig(4)
	cfg.Replicas = 3
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers      = 4
		opsPerWriter = 60
		killAfterOps = 40 // total ops before the node dies mid-load
		keyRange     = 100
	)
	var total atomic.Int64
	var failures atomic.Int64
	killed := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWriter; i++ {
				k := fmt.Sprintf("key-%d", (w*opsPerWriter+i)%keyRange)
				if err := c.Put(k, fmt.Sprintf("w%d-%d", w, i)); err != nil {
					failures.Add(1)
				}
				if _, _, err := c.Get(k); err != nil {
					failures.Add(1)
				}
				if total.Add(2) >= killAfterOps {
					select {
					case killed <- struct{}{}:
					default:
					}
				}
			}
		}(w)
	}
	<-killed
	if err := c.Kill("node3"); err != nil {
		t.Fatal(err)
	}
	c.Probe() // detect deterministically; load keeps running meanwhile
	wg.Wait()

	if f := failures.Load(); f != 0 {
		t.Fatalf("%d quorum ops failed during a single-node outage", f)
	}

	// Every key must still read back under quorum with node3 dead.
	for i := 0; i < keyRange; i++ {
		if _, ok, err := c.Get(fmt.Sprintf("key-%d", i)); err != nil || !ok {
			t.Fatalf("key-%d unreadable after mid-load kill (%v, %v)", i, ok, err)
		}
	}

	// Restart: the recovered node catches up on what it missed.
	if err := c.Restart("node3"); err != nil {
		t.Fatal(err)
	}
	if repaired, _ := c.Counters().Get("antientropy.keys-repaired"); repaired == 0 {
		t.Error("restart's catch-up repaired nothing")
	}
	// And the recovered node serves quorum traffic again.
	for i := 0; i < keyRange; i++ {
		if err := c.Put(fmt.Sprintf("key-%d", i), "final"); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok, err := c.Get("key-0"); err != nil || !ok || v != "final" {
		t.Fatalf("post-recovery read = (%q, %v, %v)", v, ok, err)
	}

	c.Close()
	after := testutil.SettleGoroutines()
	if after > base+2 {
		t.Fatalf("goroutines grew from %d to %d after Close (leak)", base, after)
	}
}

func BenchmarkClusterPutGet(b *testing.B) {
	cfg := Config{Nodes: 3, VNodes: 32, Workers: 4}
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := fmt.Sprintf("key-%d", i%64)
		if err := c.Put(k, "value"); err != nil {
			b.Fatal(err)
		}
		if _, _, err := c.Get(k); err != nil {
			b.Fatal(err)
		}
	}
}

// TestClusterStrictQuorum_NoStaleReadAfterFallbackLoss: a write counts
// only acks from its key's own replicas. Four durable nodes, N = 3,
// W = R = 2, anti-entropy manual. With two of k's replicas dead, the
// put of v2 reaches one replica; a copy parked anywhere else must not
// make up the second ack. The node outside k's replica set then dies,
// the two replicas come back, and the replica that took v2 dies. If
// the put of v2 was acknowledged, the read that follows must return
// it: it finished before the read began, and no disk was lost.
func TestClusterStrictQuorum_NoStaleReadAfterFallbackLoss(t *testing.T) {
	cfg := durableConfig(4)
	cfg.Replicas = 3
	cfg.WriteQuorum, cfg.ReadQuorum = 2, 2
	c := startCluster(t, cfg)
	const key = "k"
	reps := replicasOf(c, key)
	a, b, cc := reps[0], reps[1], reps[2]
	var other string
	for _, n := range c.Nodes() {
		if n != a && n != b && n != cc {
			other = n
		}
	}
	step := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	step("put v1", c.Put(key, "v1"))
	step("kill "+b, c.Kill(b))
	step("kill "+cc, c.Kill(cc))
	c.Probe()
	errV2 := c.Put(key, "v2")
	step("kill "+other, c.Kill(other))
	c.Probe()
	step("restart "+b, c.Restart(b))
	step("restart "+cc, c.Restart(cc))
	step("kill "+a, c.Kill(a))
	c.Probe()
	v, ok, err := c.Get(key)
	step("get", err)
	t.Logf("put v2 = %v; get = %q, %v", errV2, v, ok)
	if errV2 == nil && (!ok || v != "v2") {
		t.Fatalf("put v2 was acknowledged, then the read returned %q (found %v)", v, ok)
	}
	if errV2 != nil && !errors.Is(errV2, ErrNoQuorum) {
		t.Fatalf("put v2 with one live replica = %v, want ErrNoQuorum", errV2)
	}
}
