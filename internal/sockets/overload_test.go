// Overload integration tests: drive a node past its admission bound and
// assert the whole pushback loop — server sheds, Pool backs off and
// retries, typed ErrOverload after exhausted attempts, service restored
// once the queue drains, nothing leaked. External package so the tests
// can use testutil (in-package sockets tests cannot; see testutil's
// package comment).
package sockets_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/sockets"
	"repro/internal/testutil"
)

func TestPoolOverload(t *testing.T) {
	// The subtest is named for the wire format it drives; binary is the
	// Pool's only transport.
	t.Run("binary", testPoolOverloadBinary)
}

func testPoolOverloadBinary(t *testing.T) {
	base := testutil.SettleGoroutines()

	const maxPending = 2
	gate := make(chan struct{})
	arrived := make(chan string, 16)
	srv := testutil.StartKV(t, sockets.ServerConfig{
		MaxPending:   maxPending,
		DrainTimeout: time.Second,
		PreHandle: func(_, key string) func() {
			if key != "wedge" {
				return nil
			}
			return func() {
				arrived <- key
				<-gate
			}
		},
	})

	mkPool := func(attempts int) *sockets.Pool {
		p, err := sockets.NewPool(srv.Addr(), sockets.PoolConfig{
			MaxAttempts: attempts,
			Timeout:     10 * time.Second,
			BackoffBase: time.Millisecond,
			BackoffMax:  5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	wedgePool := mkPool(1)
	probePool := mkPool(3)

	// Fill every admission slot with requests wedged inside the
	// server's PreHandle hook.
	var wg sync.WaitGroup
	wedgeErrs := make([]error, maxPending)
	for i := 0; i < maxPending; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, wedgeErrs[i] = wedgePool.Get("wedge")
		}()
	}
	for i := 0; i < maxPending; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatal("wedged request never reached the server")
		}
	}

	// The node is full: a probe must be shed on every attempt and
	// surface the typed error after the bounded retry ladder — not
	// hang, not storm.
	_, _, err := probePool.Get("other")
	if !errors.Is(err, sockets.ErrOverload) {
		t.Fatalf("probe error = %v, want ErrOverload", err)
	}
	st := probePool.Stats()
	if st.Retries != 2 {
		t.Errorf("probe retries = %d, want 2 (MaxAttempts-1: backoff between attempts, no storm)", st.Retries)
	}
	if got := probePool.Overloads(); got != 3 {
		t.Errorf("probe overload count = %d, want 3 (one per attempt)", got)
	}
	if shed := srv.Shed(); shed != 3 {
		t.Errorf("server shed count = %d, want 3", shed)
	}
	if peak := srv.PendingPeak(); peak != maxPending {
		t.Errorf("pending peak = %d, want %d", peak, maxPending)
	}

	// Heartbeats must get through a saturated node: shedding PING
	// would make overload look like death to the failure detector.
	if err := probePool.Ping(); err != nil {
		t.Errorf("PING through a saturated node failed: %v", err)
	}

	// Drain: release the gate, let the wedged requests finish, and
	// service comes back without new connections or restarts.
	close(gate)
	wg.Wait()
	for i, werr := range wedgeErrs {
		if werr != nil {
			t.Errorf("wedged request %d failed: %v", i, werr)
		}
	}
	if _, err := probePool.SetVCtx(context.Background(), "other", stamped(1, "v")); err != nil {
		t.Fatalf("request after drain failed: %v", err)
	}
	if v, ok, err := probePool.Get("other"); err != nil || !ok || v != stamped(1, "v") {
		t.Fatalf("read after drain = %q, %v, %v", v, ok, err)
	}
	if pending := srv.Pending(); pending != 0 {
		t.Errorf("pending = %d after drain, want 0", pending)
	}

	wedgePool.Close()
	probePool.Close()
	srv.Close()
	testutil.CheckNoGoroutineLeak(t, base, 3)
}

func TestServerNoSheddingWhenUnbounded(t *testing.T) {
	// MaxPending 0 disables shedding but the depth gauge still tracks.
	gate := make(chan struct{})
	arrived := make(chan struct{}, 8)
	srv := testutil.StartKV(t, sockets.ServerConfig{
		DrainTimeout: time.Second,
		PreHandle: func(_, key string) func() {
			if key != "wedge" {
				return nil
			}
			return func() {
				arrived <- struct{}{}
				<-gate
			}
		},
	})
	p, err := sockets.NewPool(srv.Addr(), sockets.PoolConfig{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Get("wedge") //nolint:errcheck // liveness is the assertion
		}()
	}
	for i := 0; i < 3; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatal("wedged request never reached the server")
		}
	}
	if got := srv.Pending(); got != 3 {
		t.Errorf("pending = %d, want 3", got)
	}
	if srv.Shed() != 0 {
		t.Errorf("shed = %d with MaxPending 0, want 0", srv.Shed())
	}
	close(gate)
	wg.Wait()
	if peak := srv.PendingPeak(); peak < 3 {
		t.Errorf("pending peak = %d, want >= 3", peak)
	}
}
