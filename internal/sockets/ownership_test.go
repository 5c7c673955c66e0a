// Buffer-ownership and allocation tests for the pipelined path: the
// read loops reuse one frame buffer per connection and the writers
// encode straight into one queue, so no value a caller keeps may be a
// view into either.
package sockets

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/version"
)

// ownedValue is a version-stamped value whose 1 KiB payload names its
// writer, key and sequence number, so a value that is even partly
// another op's bytes compares unequal.
func ownedValue(w, k, seq int) string {
	head := fmt.Sprintf("w%d k%d s%d ", w, k, seq)
	fill := strings.Repeat(string(rune('a'+(w*7+k*3+seq)%26)), 1024-len(head))
	return version.Encode(version.Version{VV: version.Vector{"t": uint64(seq)}, Clock: int64(seq)}, head+fill)
}

// TestPipelineValuesOwned: eight goroutines share one Pool and pipeline
// GET, SETV and MGET over keys of their own, while FailConn kills the
// shared connection every so often so requests retry. Every value is
// checked byte for byte when it arrives, and again once its goroutine
// has done 2,000 more ops: a value that still views a reused read
// buffer has been overwritten by then (and -race reports the write).
func TestPipelineValuesOwned(t *testing.T) {
	s := startServer(t)
	p, err := NewPool(s.Addr(), PoolConfig{
		MaxAttempts: 10,
		// Kill the connection before the first attempt of every 97th
		// request; everything riding it fails and retries.
		FailConn: func(req, attempt int) bool { return attempt == 1 && req%97 == 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const workers, keysPer, ops, later = 8, 8, 2400, 2000
	type held struct {
		at        int // op index the value arrived at
		got, want string
		what      string
	}
	ctx := context.Background()
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := make([]string, keysPer)
			cur := make([]string, keysPer)
			for k := range keys {
				keys[k] = fmt.Sprintf("w%d-k%d", w, k)
			}
			var kept []held
			recheck := func(upTo int) error {
				n := 0
				for _, h := range kept {
					if h.at > upTo {
						kept[n] = h
						n++
						continue
					}
					if h.got != h.want {
						return fmt.Errorf("worker %d: %s value changed %d ops after it arrived", w, h.what, later)
					}
				}
				kept = kept[:n]
				return nil
			}
			seq := 0
			for i := 0; i < ops; i++ {
				k := i % keysPer
				switch i % 3 {
				case 0:
					seq++
					v := ownedValue(w, k, seq)
					if _, err := p.SetVCtx(ctx, keys[k], v); err != nil {
						errs <- fmt.Errorf("worker %d: SETV %s: %w", w, keys[k], err)
						return
					}
					cur[k] = v
				case 1:
					got, found, err := p.GetCtx(ctx, keys[k])
					if err != nil || found != (cur[k] != "") || got != cur[k] {
						errs <- fmt.Errorf("worker %d: GET %s = %.40q, %v, %v; want %.40q", w, keys[k], got, found, err, cur[k])
						return
					}
					kept = append(kept, held{at: i, got: got, want: cur[k], what: "GET"})
				case 2:
					vals, found, err := p.MGetCtx(ctx, keys...)
					if err != nil {
						errs <- fmt.Errorf("worker %d: MGET: %w", w, err)
						return
					}
					for j := range keys {
						if found[j] != (cur[j] != "") || vals[j] != cur[j] {
							errs <- fmt.Errorf("worker %d: MGET %s = %.40q; want %.40q", w, keys[j], vals[j], cur[j])
							return
						}
						kept = append(kept, held{at: i, got: vals[j], want: cur[j], what: "MGET"})
					}
				}
				if err := recheck(i - later); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := p.Stats(); st.Retries == 0 {
		t.Error("FailConn forced no retries; the test did not exercise the retry path")
	}
}

// TestPoolRoundTripAllocs: a loopback GET of a 1 KiB value allocates
// less than twice the value's size, client and server together. The
// value has to be copied once, off the client's reused read buffer;
// everything else a round trip allocates must fit in another 1 KiB.
func TestPoolRoundTripAllocs(t *testing.T) {
	s := startServer(t)
	p, err := NewPool(s.Addr(), PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	val := ownedValue(0, 0, 1)
	if _, err := p.SetVCtx(context.Background(), "k", val); err != nil {
		t.Fatal(err)
	}
	get := func() {
		v, found, err := p.Get("k")
		if err != nil || !found || v != val {
			t.Fatalf("Get = %.20q, %v, %v", v, found, err)
		}
	}
	for i := 0; i < 200; i++ {
		get() // warm the connection buffers
	}
	const ops = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / ops
	t.Logf("%.0f B allocated per 1 KiB GET round trip", perOp)
	if perOp >= 2*float64(len(val)) {
		t.Errorf("a 1 KiB GET round trip allocates %.0f B, want < %d", perOp, 2*len(val))
	}
}

// BenchmarkPoolRoundTrip times one loopback round trip through a Pool
// and a server, client and server allocations together (-benchmem).
// get reads one stored value. setv writes a ring of 1,000 keys, one
// stamped value per lap of the ring, so every SETV applies and the
// value-building cost is spread over 1,000 ops.
func BenchmarkPoolRoundTrip(b *testing.B) {
	for _, op := range []string{"get", "setv"} {
		for _, size := range []struct {
			name string
			n    int
		}{{"256", 256}, {"1k", 1024}} {
			b.Run(op+"-"+size.name, func(b *testing.B) {
				s, err := NewServer("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				p, err := NewPool(s.Addr(), PoolConfig{})
				if err != nil {
					b.Fatal(err)
				}
				defer p.Close()
				ctx := context.Background()
				payload := strings.Repeat("v", size.n)
				keys := make([]string, 1000)
				for i := range keys {
					keys[i] = fmt.Sprintf("key-%d", i)
				}
				stored := version.Encode(version.Version{VV: version.Vector{"b": 1}, Clock: 1}, payload)
				if _, err := p.SetVCtx(ctx, keys[0], stored); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var v string
				for i := 0; i < b.N; i++ {
					switch op {
					case "get":
						if _, _, err := p.GetCtx(ctx, keys[0]); err != nil {
							b.Fatal(err)
						}
					case "setv":
						if i%len(keys) == 0 {
							v = version.Encode(version.Version{VV: version.Vector{"b": uint64(i/len(keys) + 1)}, Clock: 1}, payload)
						}
						if _, err := p.SetVCtx(ctx, keys[i%len(keys)], v); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
