// Crash-recovery tests for the durable (WAL-backed) server: kill -9
// semantics via Server.Crash, then a fresh incarnation on the same
// directory must serve every acked write. External package so the raw
// binary-PDU helpers in binary_test.go are shared.
package sockets_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sockets"
	"repro/internal/sockets/wire"
)

// startDurable starts a server logging into dir. No t.Cleanup close:
// these tests Crash and restart servers by hand.
func startDurable(t *testing.T, dir string, cfg sockets.ServerConfig) *sockets.Server {
	t.Helper()
	cfg.WALDir = dir
	s, err := sockets.NewServerConfig("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("NewServerConfig: %v", err)
	}
	return s
}

// TestCrashRecovery_SnapshotTail100k is the headline acceptance check:
// 100k acked writes, kill -9, and the restarted node rebuilds the full
// store from snapshot + log tail — no peer, no hint replay, just its
// own directory.
func TestCrashRecovery_SnapshotTail100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-write recovery soak")
	}
	dir := t.TempDir()
	// Snapshot every 16 mutations so recovery genuinely exercises the
	// snapshot + tail path rather than a pure log replay.
	s := startDurable(t, dir, sockets.ServerConfig{WALSnapshotEvery: 16})

	p, err := sockets.NewPool(s.Addr(), sockets.PoolConfig{})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	const batches, perBatch = 100, 1000
	for b := 0; b < batches; b++ {
		pairs := make([]sockets.KV, 0, perBatch)
		for i := 0; i < perBatch; i++ {
			k := fmt.Sprintf("key-%05d", b*perBatch+i)
			pairs = append(pairs, sockets.KV{Key: k, Value: "v-" + k})
		}
		if err := p.MPut(pairs); err != nil {
			t.Fatalf("MPut batch %d: %v", b, err)
		}
	}
	p.Close()
	if err := s.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}

	if _, err := os.Stat(filepath.Join(dir, "snapshot")); err != nil {
		t.Fatalf("no snapshot written after %d batches: %v", batches, err)
	}

	recoverStart := time.Now()
	s2 := startDurable(t, dir, sockets.ServerConfig{WALSnapshotEvery: 16})
	recovery := time.Since(recoverStart)
	defer s2.Close()
	if got := s2.RecoveredKeys(); got != batches*perBatch {
		t.Fatalf("RecoveredKeys = %d, want %d", got, batches*perBatch)
	}
	t.Logf("recovered %d keys from snapshot + log tail in %v", s2.RecoveredKeys(), recovery)
	c, err := sockets.Dial(s2.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	n, err := c.Count()
	if err != nil || n != batches*perBatch {
		t.Fatalf("Count = %d, %v; want %d", n, err, batches*perBatch)
	}
	for _, probe := range []int{0, 1, perBatch, batches*perBatch/2 + 7, batches*perBatch - 1} {
		k := fmt.Sprintf("key-%05d", probe)
		v, found, err := c.Get(k)
		if err != nil || !found || v != "v-"+k {
			t.Fatalf("Get(%s) = %q, %v, %v; want recovered value", k, v, found, err)
		}
	}
}

// TestCrashRecovery_AckedWritesSurvive nails the contract: every
// mutation acked before Crash is served after restart, across both
// protocols and all mutating verbs.
func TestCrashRecovery_AckedWritesSurvive(t *testing.T) {
	dir := t.TempDir()
	s := startDurable(t, dir, sockets.ServerConfig{})
	c, err := sockets.Dial(s.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	const acked = 200
	for i := 0; i < acked; i++ {
		if err := c.Set(fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	// Deletes must replay too — recovery is the full mutation history,
	// not a union of surviving keys.
	if existed, err := c.Del("k000"); err != nil || !existed {
		t.Fatalf("Del = %v, %v", existed, err)
	}
	c.Close()
	if err := s.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}

	s2 := startDurable(t, dir, sockets.ServerConfig{})
	defer s2.Close()
	c2, err := sockets.Dial(s2.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c2.Close()
	if _, found, err := c2.Get("k000"); err != nil || found {
		t.Fatalf("deleted key resurrected across crash (found=%v err=%v)", found, err)
	}
	for i := 1; i < acked; i++ {
		k := fmt.Sprintf("k%03d", i)
		v, found, err := c2.Get(k)
		if err != nil || !found || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("acked key %s lost across crash (%q, %v, %v)", k, v, found, err)
		}
	}
}

// TestCrashRecovery_DedupeSurvivesRestart: a mutation acked just before
// the crash must stay exactly-once when its retry (same client ID, same
// correlation ID) arrives after the restart.
func TestCrashRecovery_DedupeSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := startDurable(t, dir, sockets.ServerConfig{})

	conn := rawBinaryConn(t, s.Addr(), 42)
	if resp := sendPDU(t, conn, &wire.Request{Verb: wire.VerbSet, ID: 1, Key: "k", Value: []byte("v")}); resp.Tag != wire.RespOK {
		t.Fatalf("SET tag = %d", resp.Tag)
	}
	// DEL k: the first application reports OK (existed). A re-applied
	// duplicate would report NOTFOUND — the recorded response is the tell.
	if resp := sendPDU(t, conn, &wire.Request{Verb: wire.VerbDel, ID: 2, Key: "k"}); resp.Tag != wire.RespOK {
		t.Fatalf("DEL tag = %d, want OK", resp.Tag)
	}
	conn.Close()
	if err := s.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}

	s2 := startDurable(t, dir, sockets.ServerConfig{})
	defer s2.Close()
	conn2 := rawBinaryConn(t, s2.Addr(), 42)
	// Retry of correlation ID 2 from client 42: must replay the
	// recorded OK, not re-apply (the key is gone now).
	if resp := sendPDU(t, conn2, &wire.Request{Verb: wire.VerbDel, ID: 2, Key: "k"}); resp.Tag != wire.RespOK {
		t.Fatalf("retried DEL tag = %d: re-applied after restart instead of replaying the recording — exactly-once broken", resp.Tag)
	}
	if s2.DedupeHits() == 0 {
		t.Fatal("retry not answered from the recovered dedupe table")
	}
}

// TestCrashRecovery_LogOrderMatchesApplyOrder: concurrent writers
// hammering one key must recover to exactly the value the live server
// last served. The WAL enqueue is reserved under the same shard lock as
// the store write — were it enqueued after unlock, two racing SETs
// could apply in one order and log in the other, and replay would
// resurrect the stale value (an acked write silently lost).
func TestCrashRecovery_LogOrderMatchesApplyOrder(t *testing.T) {
	const rounds, writers = 12, 8
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		s := startDurable(t, dir, sockets.ServerConfig{})
		p, err := sockets.NewPool(s.Addr(), sockets.PoolConfig{})
		if err != nil {
			t.Fatalf("NewPool: %v", err)
		}
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if err := p.Set("contested", fmt.Sprintf("writer-%d-round-%d", w, round)); err != nil {
					t.Errorf("Set: %v", err)
				}
			}(w)
		}
		wg.Wait()
		live, found, err := p.Get("contested")
		if err != nil || !found {
			t.Fatalf("Get live = %q, %v, %v", live, found, err)
		}
		p.Close()
		if err := s.Crash(); err != nil {
			t.Fatalf("Crash: %v", err)
		}
		s2 := startDurable(t, dir, sockets.ServerConfig{})
		c, err := sockets.Dial(s2.Addr())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		recovered, found, err := c.Get("contested")
		if err != nil || !found {
			t.Fatalf("Get recovered = %q, %v, %v", recovered, found, err)
		}
		c.Close()
		s2.Close()
		if recovered != live {
			t.Fatalf("round %d: recovered %q but the live server last served %q — log order diverged from apply order", round, recovered, live)
		}
	}
}

// TestCrashRecovery_DedupeSurvivesSnapshotPrune: with a snapshot after
// every mutation, each record's segment is pruned almost immediately —
// the recorded response must already be in the snapshot when its record
// is. (The recording is published before the WAL enqueue, under the
// shard lock; were it published only after the fsync wait, a rotation
// racing in between would prune the record while the snapshot misses
// the recording, and the retried DEL below would re-apply and answer
// NOTFOUND.)
func TestCrashRecovery_DedupeSurvivesSnapshotPrune(t *testing.T) {
	dir := t.TempDir()
	s := startDurable(t, dir, sockets.ServerConfig{WALSnapshotEvery: 1})
	conn := rawBinaryConn(t, s.Addr(), 77)
	const n = 60
	for i := uint64(0); i < n; i++ {
		k := fmt.Sprintf("k%02d", i)
		if resp := sendPDU(t, conn, &wire.Request{Verb: wire.VerbSet, ID: 2 * i, Key: k, Value: []byte("v")}); resp.Tag != wire.RespOK {
			t.Fatalf("SET %s tag = %d", k, resp.Tag)
		}
		if resp := sendPDU(t, conn, &wire.Request{Verb: wire.VerbDel, ID: 2*i + 1, Key: k}); resp.Tag != wire.RespOK {
			t.Fatalf("DEL %s tag = %d, want OK", k, resp.Tag)
		}
	}
	conn.Close()
	if err := s.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	s2 := startDurable(t, dir, sockets.ServerConfig{WALSnapshotEvery: 1})
	defer s2.Close()
	conn2 := rawBinaryConn(t, s2.Addr(), 77)
	defer conn2.Close()
	for i := uint64(0); i < n; i++ {
		if resp := sendPDU(t, conn2, &wire.Request{Verb: wire.VerbDel, ID: 2*i + 1, Key: fmt.Sprintf("k%02d", i)}); resp.Tag != wire.RespOK {
			t.Fatalf("retried DEL id %d tag = %d: recording lost across snapshot prune — exactly-once broken", 2*i+1, resp.Tag)
		}
	}
}

// TestCrashRecovery_TextRejectsUnloggableKeys: the text protocol can
// frame keys the WAL's replay decoder refuses (an empty key in "SET  v"
// or "DEL "). Those must be rejected before they reach the log — a
// single such record would make every subsequent Open fail, bricking
// the node.
func TestCrashRecovery_TextRejectsUnloggableKeys(t *testing.T) {
	dir := t.TempDir()
	s := startDurable(t, dir, sockets.ServerConfig{})
	conn := rawConn(t, s.Addr())
	sendText := func(req string) string {
		t.Helper()
		if err := sockets.WriteFrame(conn, []byte(req)); err != nil {
			t.Fatalf("write %q: %v", req, err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		resp, err := sockets.ReadFrame(conn)
		if err != nil {
			t.Fatalf("read response to %q: %v", req, err)
		}
		return string(resp)
	}
	if got := sendText("SET  empty-key-value"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("SET with empty key = %q, want ERR", got)
	}
	if got := sendText("DEL "); got != "NOTFOUND" {
		t.Fatalf("DEL with empty key = %q, want NOTFOUND (nothing logged)", got)
	}
	if got := sendText("SET k v"); got != "OK" {
		t.Fatalf("SET k v = %q", got)
	}
	conn.Close()
	if err := s.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	// The proof: recovery replays cleanly and serves the one valid write.
	s2 := startDurable(t, dir, sockets.ServerConfig{})
	defer s2.Close()
	if got := s2.RecoveredKeys(); got != 1 {
		t.Fatalf("RecoveredKeys = %d, want 1", got)
	}
}
