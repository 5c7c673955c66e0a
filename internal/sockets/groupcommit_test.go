// Group-commit tests for the durable SETV path: the read loop applies
// each SETV and reserves its log position, and the WAL's commit loop
// answers it after the fsync, so SETVs pipelined by many callers share
// fsyncs instead of paying one each.
package sockets_test

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sockets"
)

// minRecordsPerSync is the group-commit floor TestDurableSetV_GroupCommit
// holds a durable server to, with eight callers in flight.
const minRecordsPerSync = 5.0

// pipelineSetVs has callers goroutines share p, each writing perCaller
// SETVs to keys of its own, one at a time, so up to callers requests are
// in flight on the pool's one connection. It returns the count acked.
func pipelineSetVs(t testing.TB, p *sockets.Pool, callers, perCaller int) int64 {
	var acked atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				key := "gc-" + strconv.Itoa(c) + "-" + strconv.Itoa(i)
				if _, err := p.SetVCtx(context.Background(), key, stamped(1, key)); err != nil {
					t.Errorf("SetV %s: %v", key, err)
					return
				}
				acked.Add(1)
			}
		}(c)
	}
	wg.Wait()
	return acked.Load()
}

// TestDurableSetV_GroupCommit guards the fsync-wait layer: eight callers
// pipelining SETVs to one durable server must share fsyncs. Every acked
// SETV is one logged append, and appends per fsync must reach
// minRecordsPerSync.
//
// The test runs on one P, where the connection's read loop, the commit
// loop and the callers take turns on a single CPU: the regime of a node
// whose CPUs are busy, as in a cluster's preload. There, the frames of
// one coalesced read all reserve their log positions before the commit
// loop runs, and one fsync covers them (measured 7.9–8.0 records per
// fsync on a 2-vCPU VM with ext4 on a virtio disk; 7.7–8.0 under
// -race). A server that gives each durable SETV a goroutine blocked in
// Ticket.Wait lets the commit loop run after the first reservation, and
// measured 1.0–1.1 (3.5–4.3 under -race).
func TestDurableSetV_GroupCommit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := startDurable(t, t.TempDir(), sockets.ServerConfig{})
	defer s.Close()
	p := binPool(t, s, sockets.PoolConfig{})
	const callers, perCaller = 8, 100
	acked := pipelineSetVs(t, p, callers, perCaller)
	appends, syncs := s.WALStats()
	if acked != callers*perCaller || appends != acked {
		t.Fatalf("acked %d SETVs, logged %d appends; want %d of each", acked, appends, callers*perCaller)
	}
	ratio := float64(appends) / float64(syncs)
	t.Logf("%d appends in %d fsyncs: %.2f records per fsync", appends, syncs, ratio)
	if ratio < minRecordsPerSync {
		t.Fatalf("%.2f records per fsync, want at least %.1f: pipelined durable SETVs are not sharing fsyncs", ratio, minRecordsPerSync)
	}
}

// BenchmarkDurableSetV is the fsync-wait layer's microbench: 8 ×
// GOMAXPROCS callers pipeline SETVs (fresh keys, 256-byte values) over
// one Pool to a durable server. It reports records per fsync beside the
// time and allocations per acked SETV, client and server together.
func BenchmarkDurableSetV(b *testing.B) {
	s := startDurable(b, b.TempDir(), sockets.ServerConfig{})
	defer s.Close()
	p, err := sockets.NewPool(s.Addr(), sockets.PoolConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	pad := string(make([]byte, 256))
	var next atomic.Int64
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			key := "bench-" + strconv.FormatInt(next.Add(1), 10)
			if _, err := p.SetVCtx(context.Background(), key, stamped(1, pad)); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if appends, syncs := s.WALStats(); syncs > 0 {
		b.ReportMetric(float64(appends)/float64(syncs), "records/sync")
	}
}
