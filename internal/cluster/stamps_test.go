package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/version"
)

// newestStored returns the newest stamped copy of key across the
// cluster's live nodes, as its header and payload.
func newestStored(t *testing.T, c *Cluster, key string) (version.Header, string) {
	t.Helper()
	var newest version.Header
	var payload string
	found := false
	for _, name := range c.Nodes() {
		n, _ := c.lookup(name)
		got, ok, err := n.client().GetCtx(context.Background(), key)
		if err != nil || !ok {
			continue
		}
		h, p, err := version.ParseHeader(got)
		if err != nil {
			t.Fatalf("%s on %s: %v", key, name, err)
		}
		if !found || h.Newer(newest) {
			newest, payload, found = h, p, true
		}
	}
	if !found {
		t.Fatalf("%s: no replica holds a stamped value", key)
	}
	return newest, payload
}

// TestConcurrentWritersDominate has 8 goroutines put to 4 keys through
// one Cluster at once. Every stamp comes from the client's one write
// counter, so the acked puts of a key are totally ordered by
// dominance, and each key's newest stored copy must be exactly its
// largest acked stamp with that put's payload.
func TestConcurrentWritersDominate(t *testing.T) {
	c, err := New(Config{Nodes: 3, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type acked struct {
		ver   version.Header
		value string
	}
	const writers, puts = 8, 500
	keys := []string{"k0", "k1", "k2", "k3"}
	var mu sync.Mutex
	var largest [4]acked
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				k := (w + i) % len(keys)
				value := fmt.Sprintf("w%d-%d", w, i)
				ver, err := c.writeQuorum(context.Background(), "put", keys[k], value, false)
				if err != nil {
					t.Errorf("put %s: %v", keys[k], err)
					continue
				}
				mu.Lock()
				if cur := largest[k]; cur.value != "" && ver.Compare(cur.ver) != version.Dominates && cur.ver.Compare(ver) != version.Dominates {
					t.Errorf("%s: acked stamps of %s and %s are not ordered by dominance", keys[k], cur.value, value)
				}
				if largest[k].value == "" || ver.Compare(largest[k].ver) == version.Dominates {
					largest[k] = acked{ver, value}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	for k, key := range keys {
		h, payload := newestStored(t, c, key)
		want := largest[k]
		if h.Compare(want.ver) != version.Equal || h.Clock != want.ver.Clock || payload != want.value {
			t.Errorf("%s: newest stored copy holds %q, want the largest acked put %q", key, payload, want.value)
		}
	}
}

// TestReopenedClientWriteWins reopens a durable cluster over the logs
// of an earlier Cluster that wrote the key three times. The new
// client's first stamp is concurrent with the stored one, and the
// later clock wins: its acknowledged write must be what Get returns.
func TestReopenedClientWriteWins(t *testing.T) {
	cfg := Config{Nodes: 3, Durable: true, WALRoot: t.TempDir(), DrainTimeout: 50 * time.Millisecond}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"v-1", "v-2", "v-old"} {
		if err := c.Put("k", v); err != nil {
			t.Fatal(err)
		}
	}
	first := c.writer
	c.Close()

	c, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(c.writer) != 8 || c.writer == first {
		t.Fatalf("writer names %q then %q: want two distinct 8-byte names", first, c.writer)
	}
	if got, _, err := c.Get("k"); err != nil || got != "v-old" {
		t.Fatalf("reopened Get = %q, %v; want the logged v-old", got, err)
	}
	if err := c.Put("k", "v-new"); err != nil {
		t.Fatal(err)
	}
	if got, _, err := c.Get("k"); err != nil || got != "v-new" {
		t.Fatalf("Get after the acked Put = %q, %v; want v-new", got, err)
	}
}

// TestStampDominatesAcrossCoordinatorChange kills the key's first
// replica between two writes. The stamps owe nothing to which replicas
// are up: the second write, to the same key or another, dominates the
// first.
func TestStampDominatesAcrossCoordinatorChange(t *testing.T) {
	c, err := New(Config{Nodes: 3, Replicas: 3, DrainTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	v1, err := c.writeQuorum(ctx, "put", "k", "v1", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(replicasOf(c, "k")[0]); err != nil {
		t.Fatal(err)
	}
	c.Probe()
	for _, key := range []string{"k", "other"} {
		v2, err := c.writeQuorum(ctx, "put", key, "v2", false)
		if err != nil {
			t.Fatal(err)
		}
		if o := v2.Compare(v1); o != version.Dominates {
			t.Fatalf("put to %s after the kill: its stamp is %v to the first, want dominates", key, o)
		}
	}
}
