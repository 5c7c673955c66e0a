package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/version"
)

// TestClientKeyTableBytes bounds what the client pays per tracked key:
// the heap a write adds to the key table, over 100k distinct keys. A
// version.Vector map per key cost about 280 B on amd64; the table's
// vector bytes must stay under 100.
func TestClientKeyTableBytes(t *testing.T) {
	const n = 100_000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
	}
	var table keyTable
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, key := range keys {
		table.bump(key, fmt.Sprint("node", i%3))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perKey := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	runtime.KeepAlive(&table)
	t.Logf("key table: %.1f B per tracked key over %d keys", perKey, n)
	tracked := 0
	for i := range table {
		tracked += len(table[i].m)
	}
	if tracked != n {
		t.Fatalf("table tracks %d keys, want %d", tracked, n)
	}
	if perKey >= 100 {
		t.Fatalf("key table costs %.1f B per tracked key, want < 100", perKey)
	}
}

// TestConcurrentWritersDominate has 8 goroutines put to 4 keys through
// one Cluster at once. Writes no longer serialize on the topology
// lock, so the key's stripe lock alone must keep each bump: the stored
// vector of every key must count exactly its acknowledged puts (with
// no node down, all in the coordinator's slot).
func TestConcurrentWritersDominate(t *testing.T) {
	c, err := New(Config{Nodes: 3, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const writers, puts = 8, 500
	keys := []string{"k0", "k1", "k2", "k3"}
	var acked [4]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				k := (w + i) % len(keys)
				if err := c.Put(keys[k], fmt.Sprintf("w%d-%d", w, i)); err != nil {
					t.Errorf("put %s: %v", keys[k], err)
					continue
				}
				acked[k].Add(1)
			}
		}(w)
	}
	wg.Wait()

	for k, key := range keys {
		var newest version.Header
		var raw string
		for _, name := range c.Nodes() {
			n, _ := c.lookup(name)
			got, ok, err := n.client().GetCtx(context.Background(), key)
			if err != nil || !ok {
				continue
			}
			h, _, err := version.ParseHeader(got)
			if err != nil {
				t.Fatalf("%s on %s: %v", key, name, err)
			}
			if raw == "" || h.Newer(newest) {
				newest, raw = h, got
			}
		}
		v, _, _, err := version.Decode(raw)
		if err != nil {
			t.Fatalf("%s: no replica holds a stamped value: %v", key, err)
		}
		var sum uint64
		for _, n := range v.VV {
			sum += n
		}
		if want := uint64(acked[k].Load()); sum != want {
			t.Errorf("%s: stored vector %v counts %d writes, want %d acknowledged puts", key, v.VV, sum, want)
		}
	}
}
