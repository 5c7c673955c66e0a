package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestQuorumFanoutAllocs: a healthy memory-only quorum write and read
// of a 256 B value stay under an allocation bound, client and servers
// together. Sending the first attempts as Pool futures instead of one
// goroutine per replica, and answering SETV inline on the server,
// brought them from 50 and 44 allocations to 31 and 29 (amd64,
// Go 1.24, with or without -race); the bounds fail the
// goroutine-per-replica design.
func TestQuorumFanoutAllocs(t *testing.T) {
	const putBound, getBound = 38, 36
	c := startCluster(t, Config{Nodes: 3, VNodes: 32, Workers: 2})
	ctx := context.Background()
	val := strings.Repeat("v", 256)
	for i := 0; i < 200; i++ { // warm the connections' buffers
		if err := c.PutCtx(ctx, "k", val); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.GetCtx(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	put := testing.AllocsPerRun(500, func() {
		if err := c.PutCtx(ctx, "k", val); err != nil {
			t.Fatal(err)
		}
	})
	get := testing.AllocsPerRun(500, func() {
		if v, ok, err := c.GetCtx(ctx, "k"); err != nil || !ok || v != val {
			t.Fatalf("GetCtx = %.10q, %v, %v", v, ok, err)
		}
	})
	t.Logf("allocations per op: put %.0f, get %.0f", put, get)
	if put > putBound {
		t.Errorf("a quorum put allocates %.0f times, want <= %d", put, putBound)
	}
	if get > getBound {
		t.Errorf("a quorum get allocates %.0f times, want <= %d", get, getBound)
	}
}

// fanoutTestConfig is a 4-node, 3-replica cluster with no heartbeat
// traffic, so every request a fault hook sees belongs to the test's own
// operations.
func fanoutTestConfig() Config {
	cfg := testConfig(4)
	cfg.Replicas = 3
	cfg.HeartbeatInterval = time.Hour
	return cfg
}

// replicasOf returns the names of key's replicas in preference order.
func replicasOf(c *Cluster, key string) []string {
	p := c.place(key)
	c.inflight.Done()
	names := make([]string, len(p.replicas))
	for i, n := range p.replicas {
		names[i] = n.name
	}
	return names
}

// TestFanout_FailConnFirstAttempt: one replica's first attempts die on
// the wire. With W = R = 3 the put and the get need that replica, so
// both must succeed through its retry, and the retry must continue the
// same request: the replica sees each op's request as attempt 1 and
// then attempt 2 under one correlation ID, and never more than
// PoolAttempts wire attempts for it.
func TestFanout_FailConnFirstAttempt(t *testing.T) {
	const key = "k"
	type wireAttempt struct{ req, attempt int }
	var (
		armed  atomic.Bool
		victim atomic.Value // node name
		mu     sync.Mutex
		seen   []wireAttempt // the victim's wire attempts in the current op
	)
	victim.Store("")
	cfg := fanoutTestConfig()
	cfg.WriteQuorum, cfg.ReadQuorum = 3, 3
	cfg.PoolFailConn = func(name string) func(req, attempt int) bool {
		return func(req, attempt int) bool {
			if !armed.Load() || name != victim.Load().(string) {
				return false
			}
			mu.Lock()
			seen = append(seen, wireAttempt{req, attempt})
			mu.Unlock()
			return attempt == 1
		}
	}
	c := startCluster(t, cfg)
	victim.Store(replicasOf(c, key)[1])
	armed.Store(true)

	check := func(op string) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if len(seen) != cfg.PoolAttempts || seen[0].attempt != 1 || seen[1].attempt != 2 || seen[0].req != seen[1].req {
			t.Errorf("%s: the victim saw wire attempts %v, want attempts 1 and 2 of one request", op, seen)
		}
		seen = nil
	}
	if err := c.Put(key, "v"); err != nil {
		t.Fatalf("Put through a killed first attempt = %v", err)
	}
	check("put")
	if v, ok, err := c.Get(key); err != nil || !ok || v != "v" {
		t.Fatalf("Get through a killed first attempt = %q, %v, %v", v, ok, err)
	}
	check("get")
	if got, _ := c.Counters().Get("cluster.quorum-failures"); got != 0 {
		t.Errorf("the retry landed the copy, yet %v ops missed their quorum", got)
	}
}

// TestFanout_StalledReplica: one replica stalls every SETV and GET past
// PoolTimeout. With W = 2 the put returns at quorum, its stalled
// attempt abandoned; with W = 3 the put needs the stalled replica, so
// its first attempt expires on the fan-out's timer, the retry times out
// too, and the put fails with ErrNoQuorum: only the key's own replicas
// can ack. The read returns at quorum either way. No op leaves a future pending on the stalled replica's
// pipe, and once the stall is over that replica holds the write.
func TestFanout_StalledReplica(t *testing.T) {
	for _, tc := range []struct {
		name     string
		w        int
		max      time.Duration // the put's budget
		noQuorum bool
	}{
		{"quorum-without-it", 2, 150 * time.Millisecond, false},
		{"quorum-needs-it", 3, 3 * time.Second, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const key, stall = "k", 600 * time.Millisecond
			var slow atomic.Value // node name
			slow.Store("")
			cfg := fanoutTestConfig()
			cfg.WriteQuorum = tc.w
			cfg.ServerPreHandle = func(name string) func(verb, key string) func() {
				return func(verb, _ string) func() {
					if name != slow.Load().(string) || (verb != "SETV" && verb != "GET") {
						return nil
					}
					return func() { time.Sleep(stall) }
				}
			}
			c := startCluster(t, cfg)
			target, err := c.lookup(replicasOf(c, key)[2])
			if err != nil {
				t.Fatal(err)
			}
			slow.Store(target.name)

			start := time.Now()
			if err := c.Put(key, "v"); (err != nil) != tc.noQuorum || (err != nil && !errors.Is(err, ErrNoQuorum)) {
				t.Fatalf("Put with a stalled replica = %v, want ErrNoQuorum %v", err, tc.noQuorum)
			}
			if d := time.Since(start); d > tc.max {
				t.Errorf("Put took %v, want under %v", d, tc.max)
			}
			if n := target.client().InFlight(); n != 0 {
				t.Errorf("Put returned leaving %d futures pending on the stalled replica, want 0", n)
			}
			start = time.Now()
			if v, ok, err := c.Get(key); err != nil || !ok || v != "v" {
				t.Fatalf("Get with a stalled replica = %q, %v, %v", v, ok, err)
			}
			if d := time.Since(start); d > 150*time.Millisecond {
				t.Errorf("Get took %v, want quorum time", d)
			}
			if n := target.client().InFlight(); n != 0 {
				t.Errorf("Get returned leaving %d futures pending on the stalled replica, want 0", n)
			}

			time.Sleep(3 * stall) // every stalled request has been served
			slow.Store("")
			if n := target.client().InFlight(); n != 0 {
				t.Errorf("the stalled replica's pipe holds %d pending futures, want 0", n)
			}
			raw, ok, err := target.client().Get(key)
			if err != nil || !ok || !strings.HasSuffix(raw, "v") {
				t.Errorf("stalled replica holds %q (found %v, err %v), want the write", raw, ok, err)
			}
		})
	}
}

// TestFanout_PreAttemptSpike: a 300 ms client-side latency spike on one
// replica delays only that replica's write. A W = 2 put returns in the
// spike-free time, because the spiked attempt waits on a timer rather
// than holding up the sends to the other replicas; the spiked copy
// still lands once the spike has passed, as a delayed packet would.
func TestFanout_PreAttemptSpike(t *testing.T) {
	const key, spike = "k", 300 * time.Millisecond
	var spiked atomic.Value // node name
	spiked.Store("")
	cfg := fanoutTestConfig()
	cfg.PoolPreAttempt = func(name string) func(int) time.Duration {
		return func(int) time.Duration {
			if name == spiked.Load().(string) {
				return spike
			}
			return 0
		}
	}
	c := startCluster(t, cfg)
	replicas := replicasOf(c, key)

	var spikeFree time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		if err := c.Put(key, fmt.Sprint("warm", i)); err != nil {
			t.Fatal(err)
		}
		spikeFree = max(spikeFree, time.Since(start))
	}
	// The spike hits the coordinator, the first replica a put sends to.
	spiked.Store(replicas[0])
	start := time.Now()
	if err := c.Put(key, "v"); err != nil {
		t.Fatalf("Put under a spike = %v", err)
	}
	elapsed := time.Since(start)
	spiked.Store("")
	if elapsed > spikeFree+100*time.Millisecond {
		t.Errorf("W = 2 put under a %v spike took %v; spike-free it took %v", spike, elapsed, spikeFree)
	}

	n, err := c.lookup(replicas[0])
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		raw, ok, err := n.client().Get(key)
		if err == nil && ok && strings.HasSuffix(raw, "v") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spiked replica never got the write: %q, %v, %v", raw, ok, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// benchCluster starts the quorum microbenchmarks' cluster: 3 memory-only
// nodes, 3 replicas, W = R = 2, and 256 B values.
func benchCluster(b *testing.B) (*Cluster, string) {
	c, err := New(Config{Nodes: 3, VNodes: 32, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c, strings.Repeat("v", 256)
}

// BenchmarkClusterPut times one quorum write through the whole stack,
// client and servers together (-benchmem): version stamp, the SETV
// fan-out, the servers' apply, and the wait for W acks.
func BenchmarkClusterPut(b *testing.B) {
	c, val := benchCluster(b)
	ctx := context.Background()
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.PutCtx(ctx, keys[i%len(keys)], val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterGet times one quorum read of a stored key: the GET
// fan-out, the servers' lookups, and the version compare of R answers.
func BenchmarkClusterGet(b *testing.B) {
	c, val := benchCluster(b)
	ctx := context.Background()
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		if err := c.PutCtx(ctx, keys[i], val); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.GetCtx(ctx, keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}
