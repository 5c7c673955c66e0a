// Property tests for retried mutations: every binary mutation is
// idempotent by version, so a request the server applies twice — once
// from an attempt whose response was lost, once from the retry — must
// leave the store exactly as one delivery would.
package sockets

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/version"
)

// lossyServer delivers every MPUT and MDEL twice. The server holds a
// request's first delivery until the client has given up on it: the
// client's first attempt times out, and its FailConn hook kills the
// connection before the second attempt, the ambiguous failure a real
// network produces when a connection dies after the request went out.
// Only then is the first delivery applied, and its response is lost with
// the connection. The third attempt redials and delivers the request
// again.
type lossyServer struct {
	srv        *Server
	pool       *Pool
	deliveries atomic.Int64 // MPUT and MDEL requests the server has taken

	mu    sync.Mutex
	armed bool          // the next delivery is a request's first
	gate  chan struct{} // closed once that request's first attempt is lost
	hold  func()        // when set, the first delivery also waits on it
}

func newLossyServer(t *testing.T) *lossyServer {
	t.Helper()
	l := &lossyServer{gate: make(chan struct{})}
	srv, err := NewServerConfig("127.0.0.1:0", ServerConfig{
		PreHandle: func(verb, _ string) func() {
			if verb != "MPUT" && verb != "MDEL" {
				return nil
			}
			l.deliveries.Add(1)
			l.mu.Lock()
			first, gate, hold := l.armed, l.gate, l.hold
			l.armed = false
			l.mu.Unlock()
			if !first {
				return nil
			}
			return func() {
				<-gate
				if hold != nil {
					hold()
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	p, err := NewPool(srv.Addr(), PoolConfig{
		MaxAttempts: 5,
		Timeout:     100 * time.Millisecond,
		BackoffBase: time.Millisecond,
		FailConn: func(_, attempt int) bool {
			if attempt != 2 {
				return false
			}
			l.mu.Lock()
			select {
			case <-l.gate:
			default:
				close(l.gate)
			}
			l.mu.Unlock()
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	l.srv, l.pool = srv, p
	return l
}

// arm prepares the gate for the next mutation. Requests are sent one at
// a time, so one gate serves each in turn.
func (l *lossyServer) arm(hold func()) {
	l.mu.Lock()
	l.armed, l.gate, l.hold = true, make(chan struct{}), hold
	l.mu.Unlock()
}

// settle waits until the server has answered every delivery it took,
// the lost ones included.
func (l *lossyServer) settle(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.srv.VerbLatency("MPUT").Count()+l.srv.VerbLatency("MDEL").Count() != l.deliveries.Load() {
		if time.Now().After(deadline) {
			t.Fatal("a delivery never finished")
		}
		time.Sleep(time.Millisecond)
	}
}

// batchOp is one MPUT or MDEL of a generated history.
type batchOp struct {
	mdel  bool
	pairs []KV
}

// randomStamp draws a version over three writers with small counters and
// clocks, so histories mix dominance, concurrency and equal stamps.
func randomStamp(rng *rand.Rand, payload string) string {
	vv := version.Vector{}
	for _, n := range []string{"a", "b", "c"} {
		if c := rng.Intn(3); c > 0 {
			vv[n] = uint64(c)
		}
	}
	return version.Encode(version.Version{VV: vv, Clock: int64(1 + rng.Intn(3))}, payload)
}

func randomOps(rng *rand.Rand, n int) []batchOp {
	ops := make([]batchOp, n)
	for i := range ops {
		op := batchOp{mdel: rng.Intn(3) == 0}
		for j := 0; j < 1+rng.Intn(4); j++ {
			kv := KV{Key: fmt.Sprintf("k%d", rng.Intn(6))}
			switch {
			case !op.mdel:
				kv.Value = randomStamp(rng, fmt.Sprintf("v%d-%d", i, j))
			case rng.Intn(4) > 0:
				kv.Value = randomStamp(rng, "")
			}
			op.pairs = append(op.pairs, kv)
		}
		ops[i] = op
	}
	return ops
}

func apply(ctx context.Context, p *Pool, op batchOp) error {
	if op.mdel {
		_, err := p.MDelCtx(ctx, op.pairs)
		return err
	}
	return p.MPutCtx(ctx, op.pairs)
}

// contents reads keys k0..k5 from p.
func contents(t *testing.T, p *Pool) map[string]string {
	t.Helper()
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5"}
	vals, found, err := p.MGetCtx(context.Background(), keys...)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for i, k := range keys {
		if found[i] {
			out[k] = vals[i]
		}
	}
	return out
}

// TestIdempotent_RetriedBatchesMatchSingleDelivery: random histories of
// MPUT and stamped MDEL batches, each request applied twice by the
// server, end in the same store as the same history delivered once.
func TestIdempotent_RetriedBatchesMatchSingleDelivery(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		ops := randomOps(rand.New(rand.NewSource(seed)), 10)
		once := startServer(t)
		onceP, err := NewPool(once.Addr(), PoolConfig{})
		if err != nil {
			t.Fatal(err)
		}
		twice := newLossyServer(t)
		for i, op := range ops {
			if err := apply(ctx, onceP, op); err != nil {
				t.Fatalf("seed %d op %d, single delivery: %v", seed, i, err)
			}
			twice.arm(nil)
			if err := apply(ctx, twice.pool, op); err != nil {
				t.Fatalf("seed %d op %d, retried delivery: %v", seed, i, err)
			}
			twice.settle(t)
		}
		if got, want := twice.deliveries.Load(), int64(2*len(ops)); got < want {
			t.Fatalf("seed %d: server took %d deliveries, want at least %d", seed, got, want)
		}
		want, got := contents(t, onceP), contents(t, twice.pool)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d keys after retried delivery, %d after single delivery", seed, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("seed %d: %s = %q after retried delivery, %q after single delivery", seed, k, got[k], v)
			}
		}
		onceP.Close()
	}
}

// TestIdempotent_LateMPutAfterNewerSetV: the lost first delivery of an
// MPUT reaches the store only after the retry succeeded and a newer SETV
// landed. It must change nothing.
func TestIdempotent_LateMPutAfterNewerSetV(t *testing.T) {
	ctx := context.Background()
	l := newLossyServer(t)
	late := make(chan struct{})
	l.arm(func() { <-late })
	if err := l.pool.MPutCtx(ctx, []KV{{Key: "k", Value: stamped(1, "old")}}); err != nil {
		t.Fatal(err)
	}
	if code, err := l.pool.SetVCtx(ctx, "k", stamped(2, "new")); err != nil || !SetVAppliedCode(code) {
		t.Fatalf("newer SETV = %d, %v", code, err)
	}
	close(late)
	l.settle(t)
	if v, _, err := l.pool.GetCtx(ctx, "k"); err != nil || v != stamped(2, "new") {
		t.Fatalf("after the late MPUT: %q, %v; want the newer SETV's value", v, err)
	}
}
