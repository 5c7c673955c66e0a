package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/version"
)

// vclock builds a totally ordered test version: n writes by one
// writer, so vclock(a) dominates vclock(b) exactly when a > b —
// the same shape the old integer sequence guard was tested with.
// vclock(0) is the zero version ("never existed").
func vclock(n uint64) version.Header {
	if n == 0 {
		return version.Header{}
	}
	h, _, err := version.ParseHeader(version.Encode(version.Version{VV: version.Vector{"n0": n}, Clock: int64(n)}, ""))
	if err != nil {
		panic(err)
	}
	return h
}

// admitKey drives key through the admission threshold so later observe
// calls hit the resident-entry path. Uses a generous lease anchor (now)
// so nothing expires mid-setup.
func admitKey(h *hotCache, key string, seq uint64, value string) {
	for i := 0; i < h.threshold; i++ {
		h.observe(key, time.Now(), vclock(seq), value, true)
	}
}

func TestHotCache_AdmissionThreshold(t *testing.T) {
	h := newHotCache(64, time.Minute, 3, time.Minute)

	// Below threshold: no residency, lookups miss.
	h.observe("k", time.Now(), vclock(1), "v", true)
	h.observe("k", time.Now(), vclock(1), "v", true)
	if _, _, hit := h.lookup("k"); hit {
		t.Fatal("key resident after 2 observes with threshold 3")
	}
	// Third observe within the window admits.
	h.observe("k", time.Now(), vclock(1), "v", true)
	v, ok, hit := h.lookup("k")
	if !hit || !ok || v != "v" {
		t.Fatalf("lookup after admission = (%q, %v, %v), want (v, true, true)", v, ok, hit)
	}
	if h.admissions.Load() != 1 {
		t.Errorf("admissions = %d, want 1", h.admissions.Load())
	}
	if h.Hits() != 1 {
		t.Errorf("hits = %d, want 1", h.Hits())
	}
}

func TestHotCache_LeaseExpiry(t *testing.T) {
	h := newHotCache(64, 20*time.Millisecond, 1, time.Minute)
	start := time.Now()
	h.observe("k", start, vclock(1), "v", true)
	if _, _, hit := h.lookup("k"); !hit {
		t.Fatal("fresh entry did not hit")
	}
	time.Sleep(30 * time.Millisecond)
	if _, _, hit := h.lookup("k"); hit {
		t.Fatal("entry served past its lease")
	}
	if h.expiries.Load() == 0 {
		t.Error("expiry not counted")
	}

	// An observe whose read started longer than a lease ago installs
	// nothing: the result is already too old to serve.
	h2 := newHotCache(64, 20*time.Millisecond, 1, time.Minute)
	h2.observe("stale", time.Now().Add(-time.Second), vclock(1), "v", true)
	if _, _, hit := h2.lookup("stale"); hit {
		t.Fatal("observe installed an already-expired result")
	}
}

func TestHotCache_SeqGuard(t *testing.T) {
	h := newHotCache(64, time.Minute, 1, time.Minute)
	admitKey(h, "k", 5, "v5")

	// A straggler quorum read carrying an older seq must not regress the
	// entry (it raced with a newer write-through or populate).
	h.observe("k", time.Now(), vclock(3), "v3", true)
	if v, _, hit := h.lookup("k"); !hit || v != "v5" {
		t.Fatalf("old-seq observe regressed entry: got %q, want v5", v)
	}
	// Equal or newer seq applies.
	h.observe("k", time.Now(), vclock(7), "v7", true)
	if v, _, hit := h.lookup("k"); !hit || v != "v7" {
		t.Fatalf("new-seq observe not applied: got %q, want v7", v)
	}

	// Same guard on the write-through path.
	h.writeThrough("k", vclock(6), "v6", false)
	if v, _, _ := h.lookup("k"); v != "v7" {
		t.Fatalf("old-seq writeThrough regressed entry: got %q, want v7", v)
	}
	h.writeThrough("k", vclock(9), "v9", false)
	if v, _, _ := h.lookup("k"); v != "v9" {
		t.Fatalf("writeThrough not applied: got %q, want v9", v)
	}
}

func TestHotCache_WriteThroughResidentOnly(t *testing.T) {
	h := newHotCache(64, time.Minute, 3, time.Minute)
	// Write traffic to a cold key must not admit it: a write-heavy
	// stream would otherwise flush the read-hot working set.
	h.writeThrough("cold", vclock(1), "v", false)
	if _, _, hit := h.lookup("cold"); hit {
		t.Fatal("writeThrough admitted a non-resident key")
	}

	admitKey(h, "hot", 1, "v1")
	h.writeThrough("hot", vclock(2), "v2", false)
	if v, ok, hit := h.lookup("hot"); !hit || !ok || v != "v2" {
		t.Fatalf("resident write-through = (%q, %v, %v), want (v2, true, true)", v, ok, hit)
	}
}

func TestHotCache_DeleteCachesTombstone(t *testing.T) {
	h := newHotCache(64, time.Minute, 1, time.Minute)
	admitKey(h, "k", 1, "v")
	h.writeThrough("k", vclock(2), "", true)
	v, ok, hit := h.lookup("k")
	if !hit {
		t.Fatal("deleted hot key fell out of the cache; tombstone should keep absorbing reads")
	}
	if ok || v != "" {
		t.Fatalf("deleted key read = (%q, %v), want not-found", v, ok)
	}

	// Quorum-agreed "never existed" (seq 0) also caches as not-found.
	h.observe("ghost", time.Now(), vclock(0), "", false)
	if _, ok, hit := h.lookup("ghost"); !hit || ok {
		t.Fatalf("never-existed key = (ok=%v, hit=%v), want cached not-found", ok, hit)
	}
}

func TestHotCache_LRUEviction(t *testing.T) {
	// One entry per shard: admitting a second key in a shard must evict
	// the least-recently-used one.
	h := newHotCache(cacheShards, time.Minute, 1, time.Minute)
	s := &h.shards[0]
	if s.cap != 1 {
		t.Fatalf("per-shard cap = %d, want 1", s.cap)
	}
	// Find two keys landing in the same shard.
	var a, b string
	for i := 0; ; i++ {
		k := fmt.Sprintf("evict%d", i)
		if h.shard(k) != s {
			continue
		}
		if a == "" {
			a = k
		} else {
			b = k
			break
		}
	}
	h.observe(a, time.Now(), vclock(1), "va", true)
	h.observe(b, time.Now(), vclock(1), "vb", true)
	if _, _, hit := h.lookup(a); hit {
		t.Fatal("LRU entry survived eviction")
	}
	if _, _, hit := h.lookup(b); !hit {
		t.Fatal("newly admitted entry missing")
	}
	if h.evictions.Load() != 1 {
		t.Errorf("evictions = %d, want 1", h.evictions.Load())
	}
}

func TestHotCache_AdmissionWindowResets(t *testing.T) {
	h := newHotCache(64, time.Minute, 2, 10*time.Millisecond)
	h.observe("k", time.Now(), vclock(1), "v", true)
	time.Sleep(20 * time.Millisecond)
	// Window rolled: the earlier count is gone, so this is 1-of-2 again.
	h.observe("k", time.Now(), vclock(1), "v", true)
	if _, _, hit := h.lookup("k"); hit {
		t.Fatal("key admitted across window reset; counts must not accumulate forever")
	}
	h.observe("k", time.Now(), vclock(1), "v", true)
	if _, _, hit := h.lookup("k"); !hit {
		t.Fatal("key not admitted after threshold reads within one window")
	}
}

func TestHotCache_NilSafe(t *testing.T) {
	var h *hotCache
	if _, _, hit := h.lookup("k"); hit {
		t.Fatal("nil cache hit")
	}
	h.observe("k", time.Now(), vclock(1), "v", true)
	h.writeThrough("k", vclock(1), "v", false)
	if h.Hits() != 0 || h.Misses() != 0 {
		t.Fatal("nil cache counters non-zero")
	}
}

// TestCluster_CacheEndToEnd exercises the wired path: hot reads served
// from cache (gets counted, quorum skipped), read-your-writes via
// write-through, and cached not-found after delete.
func TestCluster_CacheEndToEnd(t *testing.T) {
	c, err := New(Config{
		Nodes: 3, Replicas: 3, WriteQuorum: 2, ReadQuorum: 2,
		HotKeyCache: true, CacheLease: time.Second, CacheHotThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put("hot", "v1"); err != nil {
		t.Fatal(err)
	}
	// Drive past the admission threshold, then verify hits accrue.
	for i := 0; i < 3; i++ {
		if v, ok, err := c.Get("hot"); err != nil || !ok || v != "v1" {
			t.Fatalf("get %d = (%q, %v, %v)", i, v, ok, err)
		}
	}
	if c.CacheHits() == 0 {
		t.Fatal("no cache hits after repeated reads of one key")
	}

	// Read-your-writes: the write-through must land before Put returns.
	if err := c.Put("hot", "v2"); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.Get("hot"); !ok || v != "v2" {
		t.Fatalf("read after write = (%q, %v), want v2", v, ok)
	}

	if err := c.Del("hot"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get("hot"); err != nil || ok {
		t.Fatalf("read after delete: ok=%v err=%v, want not-found", ok, err)
	}

	if got, ok := c.Counters().Get("cache.hits"); !ok || got == 0 {
		t.Error("cache.hits counter missing from Counters()")
	}
}
