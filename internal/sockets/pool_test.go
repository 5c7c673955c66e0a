package sockets

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/merkle"
	"repro/internal/sockets/wire"
	"repro/internal/version"
)

// stamped encodes value under the one-entry version {t: n}: the shape of
// every value a Pool writes.
func stamped(n uint64, value string) string {
	return version.Encode(version.Version{VV: version.Vector{"t": n}, Clock: int64(n)}, value)
}

// setv writes key = stamped(1, value) through p.
func setv(p *Pool, key, value string) error {
	_, err := p.SetVCtx(context.Background(), key, stamped(1, value))
	return err
}

func TestPoolBasics(t *testing.T) {
	s := startServer(t)
	p, err := NewPool(s.Addr(), PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := setv(p, "k", "v with spaces"); err != nil {
		t.Fatal(err)
	}
	v, found, err := p.Get("k")
	if err != nil || !found || v != stamped(1, "v with spaces") {
		t.Errorf("Get = %q %v %v", v, found, err)
	}
	if n, err := p.MDel([]KV{{Key: "k"}}); err != nil || n != 1 {
		t.Errorf("MDel = %v %v", n, err)
	}
	if err := setv(p, "bad key", "v"); !errors.Is(err, ErrBadKey) {
		t.Errorf("SETV with space = %v, want ErrBadKey", err)
	}
	st := p.Stats()
	if st.Requests != 4 { // the rejected key never became a request
		t.Errorf("Requests = %d, want 4", st.Requests)
	}
	if st.Retries != 0 || st.Errors != 0 {
		t.Errorf("clean run recorded retries=%d errors=%d", st.Retries, st.Errors)
	}
}

func TestPoolConcurrent(t *testing.T) {
	s := startServer(t)
	p, err := NewPool(s.Addr(), PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%d-i%d", w, i)
				if err := setv(p, key, "v"); err != nil {
					errs <- err
					return
				}
				if _, found, err := p.Get(key); err != nil || !found {
					errs <- fmt.Errorf("get %s: found=%v err=%v", key, found, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, err := p.Count(); err != nil || n != workers*perWorker {
		t.Errorf("Count = %d, %v", n, err)
	}
}

func TestPoolRetriesThroughInjectedFaults(t *testing.T) {
	s := startServer(t)
	// Kill the connection on the first attempt of every request: each
	// request must succeed on attempt 2 over a fresh dial.
	p, err := NewPool(s.Addr(), PoolConfig{
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		FailConn:    func(req, attempt int) bool { return attempt == 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const n = 20
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := setv(p, key, "v"); err != nil {
			t.Fatalf("SETV %s: %v", key, err)
		}
		if _, found, err := p.Get(key); err != nil || !found {
			t.Fatalf("Get %s: found=%v err=%v", key, found, err)
		}
	}
	st := p.Stats()
	if st.Requests != 2*n {
		t.Errorf("Requests = %d, want %d", st.Requests, 2*n)
	}
	if st.Retries != 2*n {
		t.Errorf("Retries = %d, want %d (one per request)", st.Retries, 2*n)
	}
	if st.Errors != 2*n {
		t.Errorf("Errors = %d, want %d", st.Errors, 2*n)
	}
}

func TestPoolExhaustsRetryBudget(t *testing.T) {
	s := startServer(t)
	p, err := NewPool(s.Addr(), PoolConfig{
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
		FailConn:    func(req, attempt int) bool { return true }, // every attempt dies
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := setv(p, "k", "v"); err == nil {
		t.Fatal("SETV should fail when every attempt is killed")
	}
	st := p.Stats()
	if st.Retries != 1 || st.Errors != 2 {
		t.Errorf("retries=%d errors=%d, want 1 and 2", st.Retries, st.Errors)
	}
}

func TestPoolDeadline(t *testing.T) {
	s, err := NewServerConfig("127.0.0.1:0", ServerConfig{DrainTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.preHandle = func(string, string) func() { return func() { time.Sleep(300 * time.Millisecond) } }
	p, err := NewPool(s.Addr(), PoolConfig{
		MaxAttempts: 2,
		Timeout:     50 * time.Millisecond,
		BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	start := time.Now()
	if err := p.Ping(); err == nil {
		t.Error("ping should exceed the per-request deadline")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("deadline took %v to fire", elapsed)
	}
}

func TestPoolClosed(t *testing.T) {
	s := startServer(t)
	p, err := NewPool(s.Addr(), PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
	if err := p.Ping(); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("request after close = %v, want ErrPoolClosed", err)
	}
}

func TestPoolDialFailure(t *testing.T) {
	if _, err := NewPool("127.0.0.1:1", PoolConfig{Timeout: 200 * time.Millisecond}); err == nil {
		t.Error("NewPool to a dead address should fail fast")
	}
}

func TestPoolCounterSet(t *testing.T) {
	s := startServer(t)
	// One injected kill on the first attempt of every request: each
	// request costs 2 attempts, 1 retry, 1 failed attempt, 1 injection.
	p, err := NewPool(s.Addr(), PoolConfig{
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		FailConn:    func(req, attempt int) bool { return attempt == 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const n = 10
	for i := 0; i < n; i++ {
		if err := setv(p, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	cs := p.Counters()
	want := map[string]float64{
		"pool.requests":            n,
		"pool.attempts":            2 * n,
		"pool.retries":             n,
		"pool.failed-attempts":     n,
		"pool.failconn-injections": n,
	}
	for name, v := range want {
		got, ok := cs.Get(name)
		if !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, v)
		}
	}
	// The rendered table carries every counter for benchmark output.
	str := cs.String()
	for name := range want {
		if !strings.Contains(str, name) {
			t.Errorf("CounterSet.String() missing %s:\n%s", name, str)
		}
	}
}

func TestPoolPreAttemptHook(t *testing.T) {
	s := startServer(t)
	var mu sync.Mutex
	var attempts []int
	p, err := NewPool(s.Addr(), PoolConfig{
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		// Kill the first attempt of every request so the hook is seen
		// on the retry too.
		FailConn: func(req, attempt int) bool { return attempt == 1 },
		PreAttempt: func(attempt int) time.Duration {
			mu.Lock()
			attempts = append(attempts, attempt)
			mu.Unlock()
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := setv(p, "k", "v"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(attempts) != 2 || attempts[0] != 1 || attempts[1] != 2 {
		t.Errorf("PreAttempt attempts = %v, want [1 2]", attempts)
	}
}

func TestPoolPreAttemptLatencyEatsCtxBudget(t *testing.T) {
	s := startServer(t)
	p, err := NewPool(s.Addr(), PoolConfig{
		MaxAttempts: 1,
		Timeout:     2 * time.Second,
		// A spike longer than the caller's deadline: the attempt must
		// surface DeadlineExceeded instead of succeeding late.
		PreAttempt: func(int) time.Duration { return 80 * time.Millisecond },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	if _, err := p.SetVCtx(ctx, "k", stamped(1, "v")); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("SetVCtx under a spiked attempt = %v, want wrapped DeadlineExceeded", err)
	}
}

// TestPoolAttemptTimeoutClamp covers the defense-in-depth clamp in
// attemptTimeout: even a Pool whose Timeout is zero or negative (direct
// construction, bypassing NewPool's normalization) must derive a finite
// per-attempt budget, and a ctx deadline tighter than the config must
// win and be attributed to the context.
func TestPoolAttemptTimeoutClamp(t *testing.T) {
	bg := context.Background()
	near, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	far, cancel2 := context.WithTimeout(bg, time.Hour)
	defer cancel2()

	cases := []struct {
		name       string
		cfgTimeout time.Duration
		ctx        context.Context
		wantMax    time.Duration
		wantMin    time.Duration
		ctxBounded bool
	}{
		{"zero timeout, no deadline", 0, bg, defaultAttemptTimeout, defaultAttemptTimeout, false},
		{"negative timeout, no deadline", -time.Second, bg, defaultAttemptTimeout, defaultAttemptTimeout, false},
		{"zero timeout, near deadline", 0, near, 50 * time.Millisecond, time.Millisecond, true},
		{"set timeout, far deadline", 300 * time.Millisecond, far, 300 * time.Millisecond, 300 * time.Millisecond, false},
		{"set timeout, near deadline wins", 300 * time.Millisecond, near, 50 * time.Millisecond, time.Millisecond, true},
	}
	for _, tc := range cases {
		p := &Pool{cfg: PoolConfig{Timeout: tc.cfgTimeout}}
		d, ctxBounded := p.attemptTimeout(tc.ctx)
		if d <= 0 || d > tc.wantMax || d < tc.wantMin {
			t.Errorf("%s: attemptTimeout = %v, want in (%v, %v]", tc.name, d, tc.wantMin, tc.wantMax)
		}
		if ctxBounded != tc.ctxBounded {
			t.Errorf("%s: ctxBounded = %v, want %v", tc.name, ctxBounded, tc.ctxBounded)
		}
	}
}

// TestPoolZeroTimeoutCancel: a pool built with a zero Timeout (so the
// clamp supplies the attempt budget) must still honor an explicit
// cancellation promptly instead of riding out the full default window.
func TestPoolZeroTimeoutCancel(t *testing.T) {
	s := startServer(t)
	release := make(chan struct{})
	var once sync.Once
	s.preHandle = func(verb, key string) func() {
		if verb != "GET" || key != "slow" {
			return nil
		}
		return func() { <-release }
	}
	defer once.Do(func() { close(release) })

	p, err := NewPool(s.Addr(), PoolConfig{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err = p.GetCtx(ctx, "slow")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("GetCtx on stalled server = %v, want wrapped context.Canceled", err)
	}
	if e := time.Since(start); e > time.Second {
		t.Errorf("cancellation took %v; the zero-Timeout default must not delay ctx cancel", e)
	}
	once.Do(func() { close(release) })
}

// TestFrameGuard_OversizedResponseFailsOnce: a SCAN reply that would
// encode past MaxFrame comes back as an error on its own ID, served
// once and not retried, while a GET in flight on the same pipe at that
// moment completes normally — the oversized frame never reaches the
// client to tear the connection down.
func TestFrameGuard_OversizedResponseFailsOnce(t *testing.T) {
	s, err := NewServerConfig("127.0.0.1:0", ServerConfig{
		PreHandle: func(verb, _ string) func() {
			if verb != "GET" {
				return nil
			}
			return func() { time.Sleep(100 * time.Millisecond) } // still in flight when SCAN answers
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	p, err := NewPool(s.Addr(), PoolConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// 5,000 keys of 250 bytes: a SCAN reply over every bucket of about
	// 1.3 MiB.
	pairs := make([]KV, 5000)
	for i := range pairs {
		pairs[i] = KV{Key: fmt.Sprintf("%0250d", i), Value: stamped(1, "v")}
	}
	if err := p.MPut(pairs); err != nil {
		t.Fatal(err)
	}

	getErr := make(chan error, 1)
	go func() {
		v, ok, err := p.Get(pairs[0].Key)
		if err == nil && (!ok || v != stamped(1, "v")) {
			err = fmt.Errorf("Get = %q, %v", v, ok)
		}
		getErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the GET reach the server first
	retriesBefore := p.Stats().Retries
	all := []wire.Span{{Lo: 0, Hi: merkle.Buckets}}
	if _, err := p.ScanCtx(context.Background(), all); !errors.Is(err, ErrServer) || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("oversized SCAN = %v, want ErrServer naming the frame limit", err)
	}
	if err := <-getErr; err != nil {
		t.Fatalf("concurrent GET on the same pool failed: %v", err)
	}
	if n := s.VerbLatency("SCAN").Count(); n != 1 {
		t.Errorf("SCAN served %d times, want 1 (no retry into the same failure)", n)
	}
	if r := p.Stats().Retries - retriesBefore; r != 0 {
		t.Errorf("%d retries: the pipe was torn down", r)
	}
}
