package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/testutil"
)

// slowConfig returns a test config whose named nodes stall `verb`
// requests (SET/GET) for `delay` before answering. PING is never
// delayed, so the failure detector keeps seeing the node as up — the
// stall models a slow replica, not a dead one.
func slowConfig(nodes int, slow map[string]bool, verb string, delay time.Duration) Config {
	cfg := testConfig(nodes)
	cfg.ServerPreHandle = func(name string) func(verb, key string) func() {
		if !slow[name] {
			return nil
		}
		// A prefix match, so "SET" also stalls the SETV quorum writes use.
		return func(v, _ string) func() {
			if !strings.HasPrefix(v, verb) {
				return nil
			}
			return func() { time.Sleep(delay) }
		}
	}
	return cfg
}

// TestGetCancelMidQuorumPromptNoLeak is the read-side acceptance test:
// with every replica stalled, a canceled quorum Get must return a
// wrapped context.Canceled well within one PoolTimeout of the cancel,
// and tearing the cluster down afterwards must leak no goroutines —
// the laggard replica reads were woken and joined, not abandoned.
func TestGetCancelMidQuorumPromptNoLeak(t *testing.T) {
	base := testutil.SettleGoroutines()

	const stall = 2 * time.Second
	cfg := slowConfig(3, map[string]bool{"node0": true, "node1": true, "node2": true}, "GET", stall)
	cfg.Replicas = 3
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", "v"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { _, _, err := c.GetCtx(ctx, "k"); errc <- err }()
	time.Sleep(50 * time.Millisecond) // let the fan-out block in the stalled replicas
	cancelAt := time.Now()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("GetCtx = %v, want wrapped context.Canceled", err)
		}
		if elapsed := time.Since(cancelAt); elapsed > cfg.PoolTimeout {
			t.Errorf("canceled Get returned after %v, want under one PoolTimeout (%v)", elapsed, cfg.PoolTimeout)
		}
	case <-time.After(stall):
		t.Fatal("canceled Get still blocked after the full replica stall: cancellation did not propagate")
	}
	if got, _ := c.Counters().Get("cluster.ops-canceled"); got != 1 {
		t.Errorf("cluster.ops-canceled = %v, want 1", got)
	}

	c.Close()
	if after := testutil.SettleGoroutines(); after > base {
		t.Errorf("goroutines grew %d -> %d after canceled Get and Close", base, after)
	}
}

// TestPutQuorumAbortsSlowReplica is the write-side acceptance test: a
// quorum write against 3 replicas with one slow node must complete in
// about the time the quorum majority takes — the laggard's request is
// canceled the moment the quorum is reached, not awaited.
func TestPutQuorumAbortsSlowReplica(t *testing.T) {
	const stall = 2 * time.Second
	cfg := slowConfig(3, map[string]bool{"node2": true}, "SET", stall)
	cfg.Replicas = 3 // W = 2: the two fast replicas form the quorum
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	if err := c.Put("hot", "v"); err != nil {
		t.Fatalf("Put with one slow replica = %v", err)
	}
	elapsed := time.Since(start)
	if elapsed > cfg.PoolTimeout {
		t.Errorf("quorum Put took %v, want ~quorum time (well under the %v stall and the %v pool timeout)",
			elapsed, stall, cfg.PoolTimeout)
	}
	// The quorum majority really did commit: the value reads back.
	if v, ok, err := c.Get("hot"); err != nil || !ok || v != "v" {
		t.Errorf("read-back after early-return Put = (%q, %v, %v)", v, ok, err)
	}
}

// TestPutCtxAbortedBeforeFanOut: an already-canceled context must be
// rejected before any replica traffic.
func TestPutCtxAbortedBeforeFanOut(t *testing.T) {
	c := startCluster(t, testConfig(3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.PutCtx(ctx, "k", "v"); !errors.Is(err, context.Canceled) {
		t.Errorf("PutCtx on canceled ctx = %v, want wrapped context.Canceled", err)
	}
	if _, _, err := c.GetCtx(ctx, "k"); !errors.Is(err, context.Canceled) {
		t.Errorf("GetCtx on canceled ctx = %v, want wrapped context.Canceled", err)
	}
}
