// Crash-recovery tests for the durable (WAL-backed) server: kill -9
// semantics via Server.Crash, then a fresh incarnation on the same
// directory must serve every acked write. External package so the raw
// binary-PDU helpers in binary_test.go are shared.
package sockets_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sockets"
	"repro/internal/sockets/wire"
	"repro/internal/version"
)

// startDurable starts a server logging into dir. No t.Cleanup close:
// these tests Crash and restart servers by hand.
func startDurable(t testing.TB, dir string, cfg sockets.ServerConfig) *sockets.Server {
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
			pairs = append(pairs, sockets.KV{Key: k, Value: stamped(1, "v-"+k)})
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
		if err != nil || !found || v != stamped(1, "v-"+k) {
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

// TestCrashRecovery_RetriedMPutAfterRestart: a mutation acked just
// before the crash may be retried after the restart. The version
// compare needs nothing but the recovered store, so the retry changes
// nothing, even for a key a newer write has since advanced.
func TestCrashRecovery_RetriedMPutAfterRestart(t *testing.T) {
	dir := t.TempDir()
	s := startDurable(t, dir, sockets.ServerConfig{})
	conn := rawBinaryConn(t, s.Addr())
	mput := &wire.Request{Verb: wire.VerbMPut, ID: 1, Pairs: []wire.KV{
		{Key: "a", Value: []byte(stamped(1, "a1"))},
		{Key: "b", Value: []byte(stamped(1, "b1"))},
	}}
	if resp := sendPDU(t, conn, mput); resp.Tag != wire.RespCount || resp.N != 2 {
		t.Fatalf("MPUT: %+v, want 2 applied", resp)
	}
	if resp := sendPDU(t, conn, &wire.Request{Verb: wire.VerbSetV, ID: 2, Key: "a", Value: []byte(stamped(2, "a2"))}); resp.Tag != wire.RespCount || resp.N != sockets.SetVApplied {
		t.Fatalf("SETV: %+v", resp)
	}
	conn.Close()
	if err := s.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}

	s2 := startDurable(t, dir, sockets.ServerConfig{})
	defer s2.Close()
	conn2 := rawBinaryConn(t, s2.Addr())
	defer conn2.Close()
	if resp := sendPDU(t, conn2, mput); resp.Tag != wire.RespCount || resp.N != 0 {
		t.Fatalf("retried MPUT after restart: %+v, want 0 applied", resp)
	}
	for key, want := range map[string]string{"a": stamped(2, "a2"), "b": stamped(1, "b1")} {
		resp := sendPDU(t, conn2, &wire.Request{Verb: wire.VerbGet, ID: 3, Key: key})
		if resp.Tag != wire.RespValue || string(resp.Value) != want {
			t.Fatalf("GET %s after retried MPUT: %+v, want %q", key, resp, want)
		}
	}
}

// TestCrashRecovery_LogOrderMatchesApplyOrder: concurrent writers
// hammering one key with blind lab SETs must recover to exactly the
// value the live server last served. The WAL enqueue is reserved under
// the same shard lock as the store write — were it enqueued after
// unlock, two racing SETs could apply in one order and log in the
// other, and replay would resurrect the stale value (an acked write
// silently lost).
func TestCrashRecovery_LogOrderMatchesApplyOrder(t *testing.T) {
	const rounds, writers = 12, 8
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		s := startDurable(t, dir, sockets.ServerConfig{})
		clients := make([]*sockets.Client, writers)
		for w := range clients {
			c, err := sockets.Dial(s.Addr())
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			clients[w] = c
		}
		var wg sync.WaitGroup
		for w, c := range clients {
			wg.Add(1)
			go func(w int, c *sockets.Client) {
				defer wg.Done()
				if err := c.Set("contested", fmt.Sprintf("writer-%d-round-%d", w, round)); err != nil {
					t.Errorf("Set: %v", err)
				}
			}(w, c)
		}
		wg.Wait()
		live, found, err := clients[0].Get("contested")
		if err != nil || !found {
			t.Fatalf("Get live = %q, %v, %v", live, found, err)
		}
		for _, c := range clients {
			c.Close()
		}
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

// TestCrashRecovery_PipelinedSetVAckedSurvive: eight callers pipeline
// stamped SETVs over one Pool to a durable server, whose WAL commit loop
// answers each SETV after its fsync, and Crash cuts the stream
// mid-flight. After a restart on the same directory, every acked SETV
// reads back with its value or a newer one. While the stream runs, the
// acks a caller has seen never outnumber the appends the server has
// fsynced: an ack sent ahead of its fsync shows there even when the
// crash happens to spare the record.
func TestCrashRecovery_PipelinedSetVAckedSurvive(t *testing.T) {
	dir := t.TempDir()
	s := startDurable(t, dir, sockets.ServerConfig{})
	p, err := sockets.NewPool(s.Addr(), sockets.PoolConfig{MaxAttempts: 1})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	defer p.Close()

	const callers, keysPerCaller, crashAfter = 8, 16, 400
	var (
		mu       sync.Mutex
		acked    = map[string]uint64{} // key -> newest acked stamp
		nAcked   atomic.Int64
		crashing atomic.Bool
	)
	trigger := make(chan struct{})
	pullTrigger := sync.OnceFunc(func() { close(trigger) })
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		<-trigger
		crashing.Store(true)
		if err := s.Crash(); err != nil {
			t.Errorf("Crash: %v", err)
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := uint64(1); ; n++ {
				for k := 0; k < keysPerCaller; k++ {
					key := fmt.Sprintf("p%d-%02d", c, k)
					if _, err := p.SetVCtx(context.Background(), key, stamped(n, fmt.Sprintf("%s@%d", key, n))); err != nil {
						if !crashing.Load() {
							t.Errorf("SetV %s before the crash: %v", key, err)
						}
						return
					}
					mu.Lock()
					acked[key] = n
					mu.Unlock()
					total := nAcked.Add(1)
					if appends, _ := s.WALStats(); total > appends {
						t.Errorf("%d SETVs acked but only %d appends fsynced", total, appends)
						return
					}
					if total == crashAfter {
						pullTrigger()
					}
				}
			}
		}(c)
	}
	wg.Wait()
	pullTrigger() // a stream that failed early still ends in the crash
	<-crashed
	if nAcked.Load() < crashAfter {
		t.Fatalf("only %d SETVs acked before the stream failed", nAcked.Load())
	}

	s2 := startDurable(t, dir, sockets.ServerConfig{})
	defer s2.Close()
	p2, err := sockets.NewPool(s2.Addr(), sockets.PoolConfig{})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	defer p2.Close()
	for key, n := range acked {
		raw, found, err := p2.Get(key)
		if err != nil || !found {
			t.Fatalf("acked %s (stamp %d) lost across the crash: found=%v err=%v", key, n, found, err)
		}
		v, payload, _, err := version.Decode(raw)
		if err != nil || uint64(v.Clock) < n || payload != fmt.Sprintf("%s@%d", key, v.Clock) {
			t.Fatalf("%s recovered as stamp %d %q (%v), want stamp %d or newer with its own value", key, v.Clock, payload, err, n)
		}
	}
	t.Logf("%d SETVs acked on %d keys before the crash; all read back", nAcked.Load(), len(acked))
}

// legacyString appends a uvarint length and the bytes, the WAL's string
// encoding.
func legacyString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// legacyCRC is the checksum segment frames and snapshots carry: CRC32C
// (Castagnoli) of the payload, big-endian.
func legacyCRC(payload []byte) []byte {
	return binary.BigEndian.AppendUint32(nil, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
}

// TestCrashRecovery_ParentFormatLog: a WAL directory written while the
// server kept a retry-dedupe table — a snapshot whose trailing section
// holds dedupe entries, and a segment whose records carry nonzero client
// and correlation IDs — recovers through the one decoder to exactly the
// store those writes describe, byte for byte. It includes an MPUT record
// with an unstamped pair, which MPUT accepted then: replay applies what
// the log says, with no version logic.
func TestCrashRecovery_ParentFormatLog(t *testing.T) {
	dir := t.TempDir()
	stampA := version.Encode(version.Version{VV: version.Vector{"n0": 1}, Clock: 1}, "a1")
	stampC1 := version.Encode(version.Version{VV: version.Vector{"n0": 1}, Clock: 1}, "c1")
	stampC2 := version.Encode(version.Version{VV: version.Vector{"n0": 2}, Clock: 2}, "c2")
	stampD := version.Encode(version.Version{VV: version.Vector{"n1": 1}, Clock: 3}, "d1")

	// Snapshot: tail segment 2, three pairs, two dedupe entries.
	snap := binary.AppendUvarint(nil, 2)
	snap = binary.AppendUvarint(snap, 3)
	for _, kv := range [][2]string{{"a", stampA}, {"b", "raw-b"}, {"c", stampC1}} {
		snap = legacyString(legacyString(snap, kv[0]), kv[1])
	}
	snap = binary.AppendUvarint(snap, 2)
	for id := uint64(7); id <= 8; id++ {
		snap = binary.AppendUvarint(snap, 0xC0FFEE)
		snap = binary.AppendUvarint(snap, id)
		snap = legacyString(snap, string(wire.AppendResponse(nil, &wire.Response{Tag: wire.RespOK, ID: id})))
	}
	snapFile := append(append([]byte("walsnp01"), snap...), legacyCRC(snap)...)
	if err := os.WriteFile(filepath.Join(dir, "snapshot"), snapFile, 0o644); err != nil {
		t.Fatal(err)
	}

	// Segment 2: kind byte, client ID, correlation ID, then the body.
	var seg []byte
	record := func(kind byte, client, id uint64, body []byte) {
		payload := binary.AppendUvarint([]byte{kind}, client)
		payload = append(binary.AppendUvarint(payload, id), body...)
		seg = append(binary.AppendUvarint(seg, uint64(len(payload))), legacyCRC(payload)...)
		seg = append(seg, payload...)
	}
	const set, del, mput, mdel = 1, 2, 3, 4
	record(set, 0xC0FFEE, 9, legacyString(legacyString(nil, "c"), stampC2))
	mputBody := binary.AppendUvarint(nil, 2)
	mputBody = legacyString(legacyString(mputBody, "d"), stampD)
	mputBody = legacyString(legacyString(mputBody, "e"), "unstamped-e")
	record(mput, 0xC0FFEE, 10, mputBody)
	record(del, 0, 0, legacyString(nil, "a"))
	mdelBody := binary.AppendUvarint(nil, 2)
	mdelBody = legacyString(legacyString(mdelBody, "b"), "missing")
	record(mdel, 0xC0FFEE, 11, mdelBody)
	record(set, 0, 0, legacyString(legacyString(nil, "f"), "text-f"))
	if err := os.WriteFile(filepath.Join(dir, "00000002.seg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	s := startDurable(t, dir, sockets.ServerConfig{})
	defer s.Close()
	want := map[string]string{"c": stampC2, "d": stampD, "e": "unstamped-e", "f": "text-f"}
	if got := s.RecoveredKeys(); got != len(want) {
		t.Fatalf("RecoveredKeys = %d, want %d", got, len(want))
	}
	c, err := sockets.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys, err := c.Keys()
	if err != nil || len(keys) != len(want) {
		t.Fatalf("KEYS = %v, %v; want the %d keys %v", keys, err, len(want), want)
	}
	for _, k := range keys {
		v, found, err := c.Get(k)
		if err != nil || !found || v != want[k] {
			t.Fatalf("recovered %s = %q (%v, %v), want %q", k, v, found, err, want[k])
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
