package sockets

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/merkle"
	"repro/internal/sockets/wire"
	"repro/internal/version"
	"repro/internal/wal"
)

// syncWALServer starts a durable binary-protocol server plus its pool.
func syncWALServer(t *testing.T, dir string, cfg ServerConfig) (*Server, *Pool) {
	t.Helper()
	cfg.WALDir = dir
	s, err := NewServerConfig("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(s.Addr(), PoolConfig{})
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return s, p
}

// streamWAL pumps the full dump from src into dst, restarting once on a
// stale cursor (compaction racing the dump), and returns how many
// records applied.
func streamWAL(t *testing.T, src, dst *Pool) int {
	t.Helper()
	ctx := context.Background()
	applied, cur, restarts := 0, uint64(0), 0
	for {
		chunk, next, done, err := src.SyncWALDumpCtx(ctx, cur)
		if err != nil {
			if strings.Contains(err.Error(), "stale dump cursor") && restarts == 0 {
				restarts, cur = 1, 0
				continue
			}
			t.Fatalf("SyncWALDumpCtx(%d): %v", cur, err)
		}
		if len(chunk) > 0 {
			n, err := dst.SyncWALApplyCtx(ctx, chunk)
			if err != nil {
				t.Fatalf("SyncWALApplyCtx: %v", err)
			}
			applied += n
		}
		if done {
			return applied
		}
		cur = next
	}
}

// TestSyncWAL_DumpApply_ByteIdenticalReplica is the streaming
// re-replication property: a random version-stamped store — overwrites,
// tombstones, snapshot-covered history, sealed segments, and an active
// tail — streamed onto an empty node yields a byte-identical replica,
// confirmed key-by-key and by the anti-entropy Merkle digest. The
// replica must also hold the data durably: a crash and recovery of the
// receiver reproduces the same store from its own log.
func TestSyncWAL_DumpApply_ByteIdenticalReplica(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	src, srcPool := syncWALServer(t, t.TempDir(), ServerConfig{WALSegmentBytes: 4096})
	defer src.Close()

	want := map[string]string{}
	clock := int64(1)
	stamp := func(key string) version.Version {
		var v version.Version
		if cur, ok := want[key]; ok {
			v, _, _, _ = version.Decode(cur)
		}
		clock++
		return v.Next("n0", clock)
	}
	write := func(n int) {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("key%03d", rng.Intn(120))
			var enc string
			if rng.Intn(8) == 0 {
				enc = version.EncodeTombstone(stamp(key))
			} else {
				enc = version.Encode(stamp(key), fmt.Sprintf("v%d-%d", i, rng.Int63()))
			}
			code, err := srcPool.SetVCtx(ctx, key, enc)
			if err != nil {
				t.Fatal(err)
			}
			if !SetVAppliedCode(code) {
				t.Fatalf("SetV of a strictly newer stamp rejected with code %d", code)
			}
			want[key] = enc
		}
	}
	write(300)
	// Compact mid-history so the stream exercises the snapshot phase,
	// then keep writing so sealed segments and an active tail follow it.
	src.maybeSnapshot()
	src.walWG.Wait()
	write(200)

	dstDir := t.TempDir()
	dst, dstPool := syncWALServer(t, dstDir, ServerConfig{})
	applied := streamWAL(t, srcPool, dstPool)
	if applied < len(want) {
		t.Fatalf("stream applied %d records, want at least the %d live keys", applied, len(want))
	}

	check := func(p *Pool, who string) {
		t.Helper()
		n, err := p.CountCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(want) {
			t.Fatalf("%s holds %d keys, want %d", who, n, len(want))
		}
		keys := make([]string, 0, len(want))
		for k := range want {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		vals, found, err := p.MGetCtx(ctx, keys...)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if !found[i] || vals[i] != want[k] {
				t.Fatalf("%s: key %q = %q (found=%v), want %q", who, k, vals[i], found[i], want[k])
			}
		}
		// The Merkle digest is the cluster's divergence detector; root
		// equality is the "these replicas are byte-identical" verdict.
		span := []wire.Span{{Lo: 0, Hi: merkle.Buckets}}
		sh, err := srcPool.TreeCtx(ctx, span)
		if err != nil {
			t.Fatal(err)
		}
		dh, err := p.TreeCtx(ctx, span)
		if err != nil {
			t.Fatal(err)
		}
		if sh[0] != dh[0] {
			t.Fatalf("%s Merkle root %016x diverges from source %016x", who, dh[0], sh[0])
		}
	}
	check(dstPool, "streamed replica")

	// Crash the replica: everything it accepted rode its own WAL, so
	// recovery must rebuild the identical store.
	if err := dst.Crash(); err != nil {
		t.Fatal(err)
	}
	re, err := NewServerConfig("127.0.0.1:0", ServerConfig{WALDir: dstDir})
	if err != nil {
		t.Fatalf("recovering the streamed replica: %v", err)
	}
	defer re.Close()
	rePool, err := NewPool(re.Addr(), PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rePool.Close()
	check(rePool, "recovered replica")

	// Idempotence: a second full stream (a retry of every chunk) applies
	// nothing and changes nothing.
	if n := streamWAL(t, srcPool, rePool); n != 0 {
		t.Fatalf("re-streaming an identical replica applied %d records, want 0", n)
	}
	check(rePool, "re-streamed replica")
}

// TestSyncWAL_ApplyIsVersionSafe: the receiver folds stream records
// through the version compare, so a stream from a stale source can
// never regress keys the receiver already holds newer writes for — and
// unstamped payloads (not replica data) are skipped outright.
func TestSyncWAL_ApplyIsVersionSafe(t *testing.T) {
	ctx := context.Background()
	src, srcPool := syncWALServer(t, t.TempDir(), ServerConfig{})
	defer src.Close()
	dst, dstPool := syncWALServer(t, t.TempDir(), ServerConfig{})
	defer dst.Close()

	old := version.Encode(version.Version{}.Next("n0", 10), "old")
	newer := version.Encode(version.Version{}.Next("n1", 99), "newer")
	if _, err := srcPool.SetVCtx(ctx, "contested", old); err != nil {
		t.Fatal(err)
	}
	// A lab SET's payload carries no stamp: the stream must not let it
	// onto the receiver (blind bytes could clobber anything there).
	lab, err := Dial(src.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	if err := lab.Set("unstamped", "raw"); err != nil {
		t.Fatal(err)
	}
	// Snapshot so the dump reads both writes from the snapshot.
	src.maybeSnapshot()
	src.walWG.Wait()
	if _, err := dstPool.SetVCtx(ctx, "contested", newer); err != nil {
		t.Fatal(err)
	}

	streamWAL(t, srcPool, dstPool)

	v, found, err := dstPool.GetCtx(ctx, "contested")
	if err != nil {
		t.Fatal(err)
	}
	if !found || v != newer {
		t.Fatalf("stale stream regressed the receiver: %q (found=%v), want %q", v, found, newer)
	}
	if _, found, _ := dstPool.GetCtx(ctx, "unstamped"); found {
		t.Fatal("unstamped payload crossed the stream")
	}
}

// TestSyncWAL_Refusals: dump needs a WAL to stream.
func TestSyncWAL_Refusals(t *testing.T) {
	ctx := context.Background()
	s, err := NewServer("127.0.0.1:0") // memory-only
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := NewPool(s.Addr(), PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, _, _, err := p.SyncWALDumpCtx(ctx, 0); err == nil || !strings.Contains(err.Error(), "not durable") {
		t.Fatalf("dump from a memory-only node: %v, want a not-durable refusal", err)
	}
	// Apply still works on a memory-only node (the store accepts, nothing
	// is logged) — the cluster only streams between durable nodes, but
	// the verb itself has no reason to refuse.
	chunk := walStreamRecord("k", version.Encode(version.Version{}.Next("n0", 1), "v"))
	if n, err := p.SyncWALApplyCtx(ctx, chunk); err != nil || n != 1 {
		t.Fatalf("apply on memory-only node: n=%d err=%v", n, err)
	}
}

// walStreamRecord builds a one-record stream chunk without a source log.
func walStreamRecord(key, value string) []byte {
	return wal.AppendStreamRecord(nil, &wal.Record{Kind: wal.KindSet, Key: key, Value: value})
}

// TestSyncWAL_ApplyRejectsCorruptChunk: a mangled chunk must be refused
// whole — no partial fold of frames before the damage.
func TestSyncWAL_ApplyRejectsCorruptChunk(t *testing.T) {
	ctx := context.Background()
	s, p := syncWALServer(t, t.TempDir(), ServerConfig{})
	defer s.Close()
	chunk := walStreamRecord("k1", version.Encode(version.Version{}.Next("n0", 1), "v1"))
	chunk = append(chunk, walStreamRecord("k2", version.Encode(version.Version{}.Next("n0", 2), "v2"))...)
	chunk[len(chunk)-1] ^= 0x20
	if _, err := p.SyncWALApplyCtx(ctx, chunk); err == nil {
		t.Fatal("corrupt chunk applied cleanly")
	}
	if n, err := p.CountCtx(ctx); err != nil || n != 0 {
		t.Fatalf("store after corrupt chunk: %d keys (err=%v), want 0", n, err)
	}
}

// TestServerScrub_SurfacesCorruption: a durable server with scrubbing
// enabled finds a byte flipped in a sealed segment while still serving,
// reports it through the one-shot corruption callback and the counters
// — and a restart from the damaged directory refuses to come up, so the
// corruption can never silently feed recovery.
func TestServerScrub_SurfacesCorruption(t *testing.T) {
	dir := t.TempDir()
	alarm := make(chan error, 1)
	s, p := syncWALServer(t, dir, ServerConfig{
		WALSegmentBytes:  2048,
		WALScrubInterval: 5 * time.Millisecond,
		WALScrubCorrupt:  func(err error) { alarm <- err },
	})
	defer s.Close()
	ctx := context.Background()
	val := strings.Repeat("x", 100)
	for i := 0; i < 60; i++ { // ~6 KiB of records: several sealed segments
		if _, err := p.SetVCtx(ctx, fmt.Sprintf("k%02d", i), stamped(1, val)); err != nil {
			t.Fatal(err)
		}
	}
	// Let a clean pass land first: the flip below must be a detection,
	// not a race with the initial scan.
	deadline := time.Now().Add(5 * time.Second)
	for clean, _ := s.WALScrubStats(); clean == 0; clean, _ = s.WALScrubStats() {
		if time.Now().After(deadline) {
			t.Fatal("no scrub pass completed")
		}
		time.Sleep(time.Millisecond)
	}

	path := filepath.Join(dir, "00000001.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-alarm:
		if !strings.Contains(err.Error(), path) {
			t.Fatalf("corruption alarm %q does not name %s", err, path)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("scrub never reported the flipped byte")
	}
	if _, errs := s.WALScrubStats(); errs == 0 {
		t.Fatal("scrub error counter still zero after the alarm")
	}
	// The node keeps serving from memory — scrub findings degrade
	// durability, not availability.
	if _, found, err := p.GetCtx(ctx, "k00"); err != nil || !found {
		t.Fatalf("server stopped serving after a scrub finding: found=%v err=%v", found, err)
	}
	// But the damaged directory must not feed a recovery.
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if re, err := NewServerConfig("127.0.0.1:0", ServerConfig{WALDir: dir}); err == nil {
		re.Close()
		t.Fatal("restart from a corrupt WAL directory succeeded")
	}
}
