package sockets

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/merkle"
	"repro/internal/sockets/wire"
)

// TestStoreModel drives the cell store and a map[string]string model
// with the same random sets, deletes, gets, scans and walks, and
// requires them to agree after every step. It runs on several seeds and
// stripe counts (a power of two, one that is not, and a single stripe),
// with values from empty to 64 KiB, through enough keys that every
// stripe splits its cells several times. A view taken before an
// overwrite or delete must still read its old bytes afterwards.
func TestStoreModel(t *testing.T) {
	for _, shards := range []int{1, 3, 16} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				storeModelRun(t, shards, seed)
			})
		}
	}
}

func storeModelRun(t *testing.T, shards int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	st := newStore(shards)
	model := make(map[string]string)
	const keys = 1500
	value := func() string {
		n := rng.Intn(48)
		switch r := rng.Intn(100); {
		case r < 10:
			n = 0
		case r < 12:
			n = rng.Intn(64<<10 + 1)
		}
		b := make([]byte, n)
		rng.Read(b)
		return string(b)
	}
	// view is a value read out of the store before a mutation, with a
	// copy of the bytes it must still hold afterwards.
	type view struct{ got, want string }
	var views []view
	for op := 0; op < 8000; op++ {
		key := fmt.Sprintf("key-%d", rng.Intn(keys))
		sp, at := st.locate(db.RingPos(key))
		switch r := rng.Intn(100); {
		case r < 55:
			v := value()
			sp.lock.Lock()
			if old, ok := sp.get(at, key); ok && rng.Intn(4) == 0 {
				views = append(views, view{old, strings.Clone(old)})
			}
			sp.set(at, key, v)
			sp.lock.Unlock()
			model[key] = v
		case r < 70:
			sp.lock.Lock()
			old, ok := sp.del(at, key)
			sp.lock.Unlock()
			want, had := model[key]
			if ok != had || old != want {
				t.Fatalf("op %d: del(%q) = %d bytes, %v; model has %d bytes, %v", op, key, len(old), ok, len(want), had)
			}
			delete(model, key)
		case r < 97:
			got, ok := st.get(key)
			want, had := model[key]
			if ok != had || got != want {
				t.Fatalf("op %d: get(%q) = %d bytes, %v; model has %d bytes, %v", op, key, len(got), ok, len(want), had)
			}
		default:
			lo := uint64(rng.Uint32())
			hi := lo + uint64(rng.Int63n(1<<32-int64(lo)+1))
			if rng.Intn(4) == 0 { // bucket-aligned, as SCAN asks
				lo, hi = arcStart(uint32(rng.Intn(merkle.Buckets))), arcStart(uint32(rng.Intn(merkle.Buckets+1)))
			}
			checkScan(t, st, model, lo, hi)
		}
	}
	checkScan(t, st, model, 0, 1<<32)
	got := make(map[string]string)
	st.each(func(k, v string) {
		if _, dup := got[k]; dup {
			t.Fatalf("each visits %q twice", k)
		}
		got[k] = v
	})
	if len(got) != len(model) || st.len() != len(model) {
		t.Fatalf("each visits %d keys, len = %d; model has %d", len(got), st.len(), len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("each: %q = %d bytes, model %d bytes", k, len(got[k]), len(v))
		}
	}
	for i, v := range views {
		if v.got != v.want {
			t.Fatalf("view %d changed after its key was rewritten", i)
		}
	}
	for i := range st.stripes {
		if sp := &st.stripes[i]; sp.bits < 3 {
			t.Fatalf("stripe %d has %d cells for %d records: the test never split it three times", i, len(sp.cells), sp.n)
		}
	}
}

// TestStoreConcurrent runs writers, readers and scanners on one store
// at once, each under the stripe locks the server takes. Every value
// read, and every view kept from an earlier read, must be one its key
// was written with; after the writers stop, each key holds its last
// write. Run it under -race.
func TestStoreConcurrent(t *testing.T) {
	st := newStore(3)
	const writers, keys, rounds = 4, 200, 60
	val := func(k string, r int) string { return fmt.Sprintf("%s=%d%s", k, r, strings.Repeat("x", r%40)) }
	owned := func(k, v string) bool { return strings.HasPrefix(v, k+"=") }
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := w; i < keys; i += writers {
					k := fmt.Sprintf("key-%d", i)
					sp, at := st.locate(db.RingPos(k))
					sp.lock.Lock()
					if r%7 == 6 {
						sp.del(at, k)
					} else {
						sp.set(at, k, val(k, r))
					}
					sp.lock.Unlock()
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			var views [][2]string
			for n := 0; ; n++ {
				select {
				case <-stop:
					for _, v := range views {
						if !owned(v[0], v[1]) {
							t.Errorf("a kept view of %q reads %q", v[0], v[1])
						}
					}
					return
				default:
				}
				k := fmt.Sprintf("key-%d", n%keys)
				if v, ok := st.get(k); ok {
					if !owned(k, v) {
						t.Errorf("get(%q) = %q", k, v)
					}
					if n%50 == 0 {
						views = append(views, [2]string{k, v})
					}
				}
				if g == 1 && n%100 == 0 {
					st.scan(0, 1<<31, func(_ uint32, k, v string) {
						if !owned(k, v) {
							t.Errorf("scan lists %q = %q", k, v)
						}
					})
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		if v, ok := st.get(k); !ok || v != val(k, rounds-1) {
			t.Fatalf("after the writers, %q = %q, %v; want %q", k, v, ok, val(k, rounds-1))
		}
	}
}

// checkScan requires scan(lo, hi) to list exactly the model's keys
// whose ring positions lie in [lo, hi), each once, with its value.
func checkScan(t *testing.T, st *store, model map[string]string, lo, hi uint64) {
	t.Helper()
	got := make(map[string]string)
	st.scan(lo, hi, func(pos uint32, k, v string) {
		if pos != db.RingPos(k) {
			t.Fatalf("scan reports %q at position %d, want %d", k, pos, db.RingPos(k))
		}
		if _, dup := got[k]; dup {
			t.Fatalf("scan [%d, %d) lists %q twice", lo, hi, k)
		}
		got[k] = v
	})
	want := 0
	for k, v := range model {
		if pos := uint64(db.RingPos(k)); pos < lo || pos >= hi {
			continue
		}
		want++
		if g, ok := got[k]; !ok || g != v {
			t.Fatalf("scan [%d, %d): %q = %d bytes, %v; model %d bytes", lo, hi, k, len(g), ok, len(v))
		}
	}
	if len(got) != want {
		t.Fatalf("scan [%d, %d) lists %d keys, model has %d", lo, hi, len(got), want)
	}
}

// heapValue is a stored value the size of the benchmark's 256 B
// payloads once the cluster has stamped them: 279 bytes.
var heapValue = stamped(1, strings.Repeat("v", 279-len(stamped(1, ""))))

// TestServerHeapPerEntry loads 20k keys of 279 B stamped values into one
// server and bounds the heap the store holds per entry after a GC. A
// map[string]string store needs about 364 B: the value rounded up to
// its size class, a separate key allocation, and the map's slots.
func TestServerHeapPerEntry(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 20000
	if len(heapValue) != 279 {
		t.Fatalf("value is %d bytes, want 279", len(heapValue))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		resp, _ := s.applyMutation(&wire.Request{Verb: wire.VerbSetV, Key: fmt.Sprintf("k%07d", i), Value: []byte(heapValue)})
		if resp.Tag != wire.RespCount || !SetVAppliedCode(resp.N) {
			t.Fatalf("SETV %d: %+v", i, resp)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.1f B of heap per entry (%d B key + value)", per, len("k0000000")+len(heapValue))
	if per > 335 {
		t.Errorf("store holds %.1f B of heap per 287 B entry, want at most 335", per)
	}
}

// storeSizes are the value sizes the store benchmarks run at; the
// 64 KiB row shows the cost of copying a whole cell on every write.
var storeSizes = []struct {
	name string
	size int
}{{"256B", 256}, {"1KiB", 1 << 10}, {"64KiB", 64 << 10}}

// benchStore is a 16-stripe store preloaded with keys of size-byte
// values.
func benchStore(keys, size int) (*store, []string, string) {
	st := newStore(16)
	names := make([]string, keys)
	v := strings.Repeat("v", size)
	for i := range names {
		names[i] = fmt.Sprintf("k%07d", i)
		sp, at := st.locate(db.RingPos(names[i]))
		sp.set(at, names[i], v)
	}
	return st, names, v
}

// storeBenchKeys keeps the 64 KiB store at 32 MB.
const storeBenchKeys = 512

// BenchmarkStorePut overwrites keys of a preloaded store under their
// stripe locks, as SETV does.
func BenchmarkStorePut(b *testing.B) {
	for _, sz := range storeSizes {
		b.Run(sz.name, func(b *testing.B) {
			st, names, v := benchStore(storeBenchKeys, sz.size)
			b.ReportAllocs()
			b.SetBytes(int64(sz.size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := names[i%len(names)]
				sp, at := st.locate(db.RingPos(k))
				sp.lock.Lock()
				sp.set(at, k, v)
				sp.lock.Unlock()
			}
		})
	}
}

// benchSink keeps BenchmarkStoreGet's reads from being optimized away.
var benchSink string

// BenchmarkStoreGet reads keys of a preloaded store, as GET does.
func BenchmarkStoreGet(b *testing.B) {
	for _, sz := range storeSizes {
		b.Run(sz.name, func(b *testing.B) {
			st, names, _ := benchStore(storeBenchKeys, sz.size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink, _ = st.get(names[i%len(names)])
			}
		})
	}
}

// BenchmarkScanPaged lists a 100k-key node (256 B values) through SCAN
// two ways: one SCAN of every bucket, and the 64 SCANs of 64 buckets
// each that a Join's key discovery makes. A SCAN walks only the cells
// its spans overlap, so the paged walk should cost about what the full
// one does.
func BenchmarkScanPaged(b *testing.B) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	v := strings.Repeat("v", 256)
	for i := 0; i < 100000; i++ {
		s.replaySet(fmt.Sprintf("k%07d", i), v)
	}
	for _, pages := range []int{1, 64} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			b.ReportAllocs()
			width := uint32(merkle.Buckets / pages)
			listed := 0
			for i := 0; i < b.N; i++ {
				listed = 0
				for lo := uint32(0); lo < merkle.Buckets; lo += width {
					resp := s.applyScan(&wire.Request{Verb: wire.VerbScan, Spans: []wire.Span{{Lo: lo, Hi: lo + width}}})
					listed += len(resp.Scan)
				}
			}
			if listed != 100000 {
				b.Fatalf("the walk listed %d keys, want 100000", listed)
			}
		})
	}
}

// TestScanSpans checks SCAN's span handling against a walk of every key:
// overlapping, touching and out-of-range spans list each key once, and
// keys under SyncExcludePrefix list only above merkle.Buckets.
func TestScanSpans(t *testing.T) {
	s, err := NewServerConfig("127.0.0.1:0", ServerConfig{Shards: 3, SyncExcludePrefix: "_x/"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var keys []string
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("k%d", i)
		if i%10 == 0 {
			k = "_x/" + k
		}
		keys = append(keys, k)
		s.replaySet(k, "v"+k)
	}
	bucket := func(k string) uint32 {
		b := uint32(merkle.BucketOf(k))
		if strings.HasPrefix(k, "_x/") {
			b += merkle.Buckets
		}
		return b
	}
	for _, spans := range [][]wire.Span{
		{{Lo: 0, Hi: merkle.Buckets}},
		{{Lo: 0, Hi: 2 * merkle.Buckets}},
		{{Lo: 100, Hi: 900}, {Lo: 500, Hi: 1200}, {Lo: 1200, Hi: 1300}},
		{{Lo: 3000, Hi: 5000}, {Lo: 7000, Hi: 1 << 20}},
		{{Lo: 10, Hi: 10}, {Lo: 20, Hi: 5}},
	} {
		resp := s.applyScan(&wire.Request{Verb: wire.VerbScan, Spans: spans})
		var want []string
		for _, k := range keys {
			for _, sp := range spans {
				if b := bucket(k); b >= sp.Lo && b < sp.Hi {
					want = append(want, k)
					break
				}
			}
		}
		sort.Strings(want)
		if len(resp.Scan) != len(want) {
			t.Fatalf("spans %v: SCAN lists %d keys, want %d", spans, len(resp.Scan), len(want))
		}
		for i, e := range resp.Scan {
			if e.Key != want[i] || e.Hash != merkle.EntryHash(e.Key, "v"+e.Key) {
				t.Fatalf("spans %v: entry %d = %q %x, want %q", spans, i, e.Key, e.Hash, want[i])
			}
		}
	}
}
