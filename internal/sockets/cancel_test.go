package sockets

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestPoolGetCtxExpiredDeadlineFailsFast: a context whose deadline has
// already passed must be rejected before any borrow or dial — the
// request never reaches the wire.
func TestPoolGetCtxExpiredDeadlineFailsFast(t *testing.T) {
	s := startServer(t)
	p, err := NewPool(s.Addr(), PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	before, _ := p.Counters().Get("pool.attempts")
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	_, _, err = p.GetCtx(ctx, "k")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("GetCtx with expired deadline = %v, want wrapped DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("expired-deadline GetCtx took %v, want immediate", elapsed)
	}
	after, _ := p.Counters().Get("pool.attempts")
	if after != before {
		t.Errorf("expired-deadline request still made %v wire attempts", after-before)
	}
	if canceled, _ := p.Counters().Get("pool.canceled"); canceled != 1 {
		t.Errorf("pool.canceled = %v, want 1", canceled)
	}
}

// TestPoolBackoffCancelPrompt: a cancellation that lands while the
// request sits in retry backoff must abort the wait immediately instead
// of sleeping out the ladder.
func TestPoolBackoffCancelPrompt(t *testing.T) {
	s := startServer(t)
	p, err := NewPool(s.Addr(), PoolConfig{
		MaxAttempts: 3,
		// A backoff far longer than the test's cancel point: if the
		// wait is not cancelable, the request takes >2s.
		BackoffBase: 2 * time.Second,
		BackoffMax:  4 * time.Second,
		FailConn:    func(req, attempt int) bool { return true }, // every attempt dies
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	start := time.Now()
	go func() { _, _, err := p.GetCtx(ctx, "k"); errc <- err }()
	time.Sleep(50 * time.Millisecond) // let attempt 1 fail and the backoff start
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("GetCtx = %v, want wrapped context.Canceled", err)
		}
		if !strings.Contains(err.Error(), "backoff") {
			t.Errorf("error %q does not name the backoff wait", err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("cancel during backoff returned after %v, want prompt", elapsed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("GetCtx still blocked 2s after cancel: backoff is not cancelable")
	}
}

// TestClientGetCtxCancelWakesBlockedRead: a single-connection Client
// blocked reading a reply from a slow server must be woken by
// cancellation, not held until the server answers.
func TestClientGetCtxCancelWakesBlockedRead(t *testing.T) {
	s, err := NewServerConfig("127.0.0.1:0", ServerConfig{
		PreHandle: func(verb, _ string) func() {
			if verb != "GET" {
				return nil
			}
			return func() { time.Sleep(time.Second) }
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	start := time.Now()
	go func() { _, _, err := c.GetCtx(ctx, "k"); errc <- err }()
	time.Sleep(50 * time.Millisecond) // let the read block on the slow handler
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("GetCtx = %v, want wrapped context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
			t.Errorf("cancel returned after %v, want well under the 1s handler stall", elapsed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("GetCtx still blocked 2s after cancel: read is not interruptible")
	}
}

// TestPoolCtxDeadlineTightensAttempt: a ctx deadline shorter than the
// configured per-attempt Timeout must bound the attempt, so a stalled
// server costs the caller only its own budget.
func TestPoolCtxDeadlineTightensAttempt(t *testing.T) {
	s, err := NewServerConfig("127.0.0.1:0", ServerConfig{
		PreHandle: func(verb, _ string) func() {
			if verb != "GET" {
				return nil
			}
			return func() { time.Sleep(time.Second) }
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := NewPool(s.Addr(), PoolConfig{MaxAttempts: 1, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = p.GetCtx(ctx, "k")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("GetCtx = %v, want wrapped DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("GetCtx honored the 5s pool timeout (%v) instead of the 100ms ctx deadline", elapsed)
	}
}
