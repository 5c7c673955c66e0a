// White-box tests for the retry-dedupe machinery: handshake client-ID
// collision resistance, age-based eviction, and the early-eviction
// counter that makes capacity-forced exactly-once degradation visible.
package sockets

import (
	"runtime"
	"testing"
	"time"
)

// TestClientIDCollisionResistance: handshake client IDs must not be
// sequential — the server keys retry dedupe on (client ID, correlation
// ID) and correlation IDs restart at 1 in every pipe, so client IDs
// drawn from a per-process counter collide across processes (and across
// a restart of the same process), making the server replay another
// client's response instead of applying a fresh mutation.
func TestClientIDCollisionResistance(t *testing.T) {
	const n = 256
	seen := make(map[uint64]bool, n)
	var anyHigh bool
	for i := 0; i < n; i++ {
		id := newClientID()
		if id == 0 {
			t.Fatal("newClientID returned 0")
		}
		if seen[id] {
			t.Fatalf("newClientID repeated %#x within one process", id)
		}
		seen[id] = true
		if id > 1<<40 {
			anyHigh = true
		}
	}
	// A sequential counter yields 1..n; 256 crypto/rand draws all landing
	// under 2^40 has probability ~2^-6144. This is the signature check
	// that the IDs come from entropy, not a counter.
	if !anyHigh {
		t.Fatal("all client IDs are small sequential-looking values; want random 64-bit IDs")
	}
}

// sameStripeKeys returns distinct dedupe keys that hash to one stripe.
func sameStripeKeys(t *dedupeTable, client uint64, n int) []dedupeKey {
	keys := []dedupeKey{{client: client, id: 1}}
	want := t.stripe(keys[0])
	for id := uint64(2); len(keys) < n; id++ {
		k := dedupeKey{client: client, id: id}
		if t.stripe(k) == want {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestDedupeAgeEviction: a completed entry older than the retry horizon
// is dropped for free — no retry can still arrive for it — and its
// eviction does not count as an early (guarantee-degrading) one.
func TestDedupeAgeEviction(t *testing.T) {
	const horizon = 40 * time.Millisecond
	tab := newDedupeTable(1<<16, horizon)
	ks := sameStripeKeys(tab, 7, 2)

	e, dup := tab.begin(ks[0])
	if dup {
		t.Fatal("fresh key reported duplicate")
	}
	tab.finish(ks[0], e, []byte{0x81})
	if _, dup = tab.begin(ks[0]); !dup {
		t.Fatal("entry not replayable immediately after finish")
	}

	time.Sleep(horizon + 20*time.Millisecond)
	// The next finish on the stripe sweeps the aged entry out.
	e2, dup := tab.begin(ks[1])
	if dup {
		t.Fatal("second key reported duplicate")
	}
	tab.finish(ks[1], e2, []byte{0x81})

	if _, dup = tab.begin(ks[0]); dup {
		t.Error("entry older than the horizon survived the sweep")
	}
	if got := tab.earlyEvict.Load(); got != 0 {
		t.Errorf("age eviction counted as early: earlyEvict = %d, want 0", got)
	}
}

// TestDedupeEarlyEvictionCounted: when the capacity backstop forces out
// an entry still inside the retry horizon, the exactly-once guarantee
// degrades for that op — the eviction must be counted, not silent.
func TestDedupeEarlyEvictionCounted(t *testing.T) {
	// dedupeStripes total capacity = 1 completed entry per stripe.
	tab := newDedupeTable(dedupeStripes, time.Hour)
	ks := sameStripeKeys(tab, 9, 2)

	for _, k := range ks {
		e, dup := tab.begin(k)
		if dup {
			t.Fatalf("fresh key %v reported duplicate", k)
		}
		tab.finish(k, e, []byte{0x81})
	}
	// Capacity 1: finishing ks[1] evicted ks[0] well inside the horizon.
	if _, dup := tab.begin(ks[0]); dup {
		t.Error("over-capacity entry not evicted")
	}
	if _, dup := tab.begin(ks[1]); !dup {
		t.Error("newest entry evicted instead of oldest")
	}
	if got := tab.earlyEvict.Load(); got != 1 {
		t.Errorf("earlyEvict = %d, want 1", got)
	}
}

// TestDedupeTableGrowsOnUse: a server's dedupe table reserves nothing up
// front — most traffic (reads, SETV) never enters it — and still holds
// its capacity bound once mutations do arrive.
func TestDedupeTableGrowsOnUse(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab := newDedupeTable(dedupeCap, dedupeRetryHorizon)
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("a fresh dedupe table allocates %d B", grew)
	if grew >= 64<<10 {
		t.Errorf("a fresh dedupe table allocates %d B, want < 64 KiB", grew)
	}

	// Fill one stripe with twice its capacity: every key is still inside
	// the retry horizon, so each one past the cap is an early eviction.
	keys := sameStripeKeys(tab, 11, 2*tab.stripes[0].cap)
	d := tab.stripe(keys[0])
	for _, k := range keys {
		e, dup := tab.begin(k)
		if dup {
			t.Fatalf("fresh key %v reported duplicate", k)
		}
		tab.finish(k, e, []byte{0x81})
	}
	if n := len(d.entries); n > d.cap {
		t.Errorf("stripe holds %d entries, want at most its cap %d", n, d.cap)
	}
	if got, want := tab.earlyEvict.Load(), int64(len(keys)-d.cap); got != want {
		t.Errorf("earlyEvict = %d, want %d", got, want)
	}
}
