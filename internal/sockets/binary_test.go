// End-to-end tests for the binary protocol: negotiation against live
// text clients, pipelined out-of-order completion, retried correlation
// IDs that change nothing, batch PDUs, and cancellation — all over real
// loopback sockets (package sockets_test so testutil.StartKV is usable).
package sockets_test

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sockets"
	"repro/internal/sockets/wire"
	"repro/internal/testutil"
	"repro/internal/version"
)

// stamped encodes value under the one-entry version {t: n}: the shape of
// every value a Pool writes.
func stamped(n uint64, value string) string {
	return version.Encode(version.Version{VV: version.Vector{"t": n}, Clock: int64(n)}, value)
}

// setv writes key = stamped(1, value) through p.
func setv(t *testing.T, p *sockets.Pool, key, value string) {
	t.Helper()
	if _, err := p.SetVCtx(context.Background(), key, stamped(1, value)); err != nil {
		t.Fatal(err)
	}
}

// binPool opens a binary-protocol pool against s.
func binPool(t *testing.T, s *sockets.Server, cfg sockets.PoolConfig) *sockets.Pool {
	t.Helper()
	p, err := sockets.NewPool(s.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// rawBinaryConn dials the server and performs the binary handshake by
// hand, for driving deliberate PDUs (retried IDs, malformed frames).
func rawBinaryConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn := rawConn(t, addr)
	if _, err := conn.Write([]byte{wire.Magic}); err != nil {
		t.Fatal(err)
	}
	return conn
}

func sendPDU(t *testing.T, conn net.Conn, r *wire.Request) *wire.Response {
	t.Helper()
	if err := sockets.WriteFrame(conn, wire.AppendRequest(nil, r)); err != nil {
		t.Fatalf("write PDU: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	payload, err := sockets.ReadFrame(conn)
	if err != nil {
		t.Fatalf("read PDU response: %v", err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp
}

// TestBinaryNegotiationSharedStore: a text Client and a binary Pool on
// the same server read each other's writes — the negotiation byte
// selects a protocol, not a store.
func TestBinaryNegotiationSharedStore(t *testing.T) {
	s := testutil.StartKV(t, sockets.ServerConfig{})
	c, err := sockets.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := binPool(t, s, sockets.PoolConfig{})

	if err := c.Set("from-text", "t"); err != nil {
		t.Fatal(err)
	}
	setv(t, p, "from-binary", "b")
	if v, ok, err := p.Get("from-text"); err != nil || !ok || v != "t" {
		t.Fatalf("binary read of text write = %q %v %v", v, ok, err)
	}
	if v, ok, err := c.Get("from-binary"); err != nil || !ok || v != stamped(1, "b") {
		t.Fatalf("text read of binary write = %q %v %v", v, ok, err)
	}
	keys, err := c.Keys()
	if err != nil || len(keys) != 2 {
		t.Fatalf("text KEYS = %v %v, want both protocols' keys", keys, err)
	}
	if n, err := c.Count(); err != nil || n != 2 {
		t.Fatalf("text COUNT = %d %v", n, err)
	}
}

// TestBinaryPipeliningOutOfOrder: one stalled op must not convoy the
// pipeline — later requests on the same shared connection complete
// while it is still in flight, and the stalled response arrives last,
// correctly matched by correlation ID.
func TestBinaryPipeliningOutOfOrder(t *testing.T) {
	const stall = 300 * time.Millisecond
	s := testutil.StartKV(t, sockets.ServerConfig{
		PreHandle: func(verb, key string) func() {
			if verb != "GET" || key != "slow" {
				return nil
			}
			return func() { time.Sleep(stall) }
		},
	})
	p := binPool(t, s, sockets.PoolConfig{Timeout: 5 * time.Second})
	setv(t, p, "slow", "s")
	setv(t, p, "fast", "f")

	var slowDone, fastDone atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if v, ok, err := p.Get("slow"); err != nil || !ok || v != stamped(1, "s") {
			t.Errorf("slow GET = %q %v %v", v, ok, err)
		}
		slowDone.Store(time.Now().UnixNano())
	}()
	time.Sleep(20 * time.Millisecond) // let the slow GET hit the wire first
	start := time.Now()
	for i := 0; i < 16; i++ {
		if v, ok, err := p.Get("fast"); err != nil || !ok || v != stamped(1, "f") {
			t.Fatalf("fast GET = %q %v %v", v, ok, err)
		}
	}
	fastElapsed := time.Since(start)
	fastDone.Store(time.Now().UnixNano())
	wg.Wait()

	if fastElapsed > stall {
		t.Errorf("16 fast GETs took %v behind a %v stall: pipeline convoyed", fastElapsed, stall)
	}
	if slowDone.Load() < fastDone.Load() {
		t.Errorf("slow GET finished before the fast batch: stall hook did not engage")
	}
}

// TestBinaryRetriedIDIdempotentByVersion: re-sending a mutation under
// an already-answered correlation ID — what the Pool does when a
// response is lost in transit — applies it a second time, and the
// version compare makes that second application change nothing. A
// stale MPUT or a stale-stamped MDEL arriving after a newer write leaves
// the newer write in place.
func TestBinaryRetriedIDIdempotentByVersion(t *testing.T) {
	s := testutil.StartKV(t, sockets.ServerConfig{})
	conn := rawBinaryConn(t, s.Addr())
	v1, v2 := stamped(1, "v1"), stamped(2, "v2")
	get := func(id uint64) string {
		t.Helper()
		resp := sendPDU(t, conn, &wire.Request{Verb: wire.VerbGet, ID: id, Key: "k"})
		if resp.Tag == wire.RespNotFound {
			return ""
		}
		return string(resp.Value)
	}

	mput := &wire.Request{Verb: wire.VerbMPut, ID: 7, Pairs: []wire.KV{{Key: "k", Value: []byte(v1)}}}
	if resp := sendPDU(t, conn, mput); resp.Tag != wire.RespCount || resp.N != 1 {
		t.Fatalf("first MPUT: %+v, want 1 applied", resp)
	}
	if resp := sendPDU(t, conn, mput); resp.Tag != wire.RespCount || resp.N != 0 {
		t.Fatalf("retried MPUT: %+v, want 0 applied", resp)
	}
	if got := get(8); got != v1 {
		t.Fatalf("after retried MPUT: %q, want %q", got, v1)
	}

	// A newer SETV lands, then a late delivery of the old MPUT and an
	// MDEL carrying the old stamp: neither may touch the newer value.
	if resp := sendPDU(t, conn, &wire.Request{Verb: wire.VerbSetV, ID: 9, Key: "k", Value: []byte(v2)}); resp.Tag != wire.RespCount || resp.N != sockets.SetVApplied {
		t.Fatalf("SETV v2: %+v", resp)
	}
	if resp := sendPDU(t, conn, mput); resp.Tag != wire.RespCount || resp.N != 0 {
		t.Fatalf("late MPUT: %+v, want 0 applied", resp)
	}
	mdelOld := &wire.Request{Verb: wire.VerbMDel, ID: 10, Pairs: []wire.KV{{Key: "k", Value: []byte(stamped(1, ""))}}}
	if resp := sendPDU(t, conn, mdelOld); resp.Tag != wire.RespCount || resp.N != 0 {
		t.Fatalf("MDEL with an older stamp: %+v, want 0 deleted", resp)
	}
	if got := get(11); got != v2 {
		t.Fatalf("newer value lost: %q, want %q", got, v2)
	}

	// The MDEL carrying the stored stamp deletes, and its retry finds
	// nothing left to delete.
	mdel := &wire.Request{Verb: wire.VerbMDel, ID: 12, Pairs: []wire.KV{{Key: "k", Value: []byte(stamped(2, ""))}}}
	if resp := sendPDU(t, conn, mdel); resp.Tag != wire.RespCount || resp.N != 1 {
		t.Fatalf("MDEL with the stored stamp: %+v, want 1 deleted", resp)
	}
	if resp := sendPDU(t, conn, mdel); resp.Tag != wire.RespCount || resp.N != 0 {
		t.Fatalf("retried MDEL: %+v, want 0 deleted", resp)
	}
	if got := get(13); got != "" {
		t.Fatalf("after MDEL: %q, want no key", got)
	}

	// Unstamped MPUT pairs are refused before any pair applies.
	bad := &wire.Request{Verb: wire.VerbMPut, ID: 14, Pairs: []wire.KV{{Key: "a", Value: []byte(v1)}, {Key: "b", Value: []byte("raw")}}}
	if resp := sendPDU(t, conn, bad); resp.Tag != wire.RespErr {
		t.Fatalf("MPUT with an unstamped pair: %+v, want RespErr", resp)
	}
	if resp := sendPDU(t, conn, &wire.Request{Verb: wire.VerbCount, ID: 15}); resp.N != 0 {
		t.Fatalf("refused MPUT applied %d keys", resp.N)
	}
}

// TestBinaryPoolRetryAfterConnKill: the FailConn fault hook kills the
// shared connection mid-request; the retry must redial, re-send under
// the same correlation ID, and succeed — the chaos harness's connection
// drops keep working on the pipelined transport.
func TestBinaryPoolRetryAfterConnKill(t *testing.T) {
	s := testutil.StartKV(t, sockets.ServerConfig{})
	var kills atomic.Int64
	p := binPool(t, s, sockets.PoolConfig{
		MaxAttempts: 3,
		Timeout:     2 * time.Second,
		FailConn: func(req, attempt int) bool {
			if attempt == 1 && kills.Add(1) == 1 {
				return true
			}
			return false
		},
	})
	if _, err := p.SetVCtx(context.Background(), "k", stamped(1, "v")); err != nil {
		t.Fatalf("SETV through injected kill: %v", err)
	}
	if v, ok, err := p.Get("k"); err != nil || !ok || v != stamped(1, "v") {
		t.Fatalf("GET after recovery = %q %v %v", v, ok, err)
	}
	cs := p.Counters()
	if retries, _ := cs.Get("pool.retries"); retries < 1 {
		t.Errorf("pool.retries = %v, want >= 1", retries)
	}
	if inj, _ := cs.Get("pool.failconn-injections"); inj != 1 {
		t.Errorf("pool.failconn-injections = %v, want 1", inj)
	}
}

// TestBinaryBatchOps: MGET/MPUT/MDEL round-trip as single PDUs.
func TestBinaryBatchOps(t *testing.T) {
	s := testutil.StartKV(t, sockets.ServerConfig{})
	bp := binPool(t, s, sockets.PoolConfig{})

	pairs := []sockets.KV{{Key: "a", Value: stamped(1, "1")}, {Key: "b", Value: stamped(1, "2 with spaces")}, {Key: "c", Value: stamped(1, "3")}}
	if err := bp.MPut(pairs); err != nil {
		t.Fatal(err)
	}
	reqsBefore := s.Stats().Requests
	values, found, err := bp.MGet("a", "b", "missing", "c")
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Requests != reqsBefore+1 {
		t.Errorf("MGET of 4 keys cost %d requests, want 1 PDU", s.Stats().Requests-reqsBefore)
	}
	wantV := []string{pairs[0].Value, pairs[1].Value, "", pairs[2].Value}
	wantF := []bool{true, true, false, true}
	for i := range wantV {
		if values[i] != wantV[i] || found[i] != wantF[i] {
			t.Errorf("MGET[%d] = %q/%v, want %q/%v", i, values[i], found[i], wantV[i], wantF[i])
		}
	}
	dels := []sockets.KV{{Key: "a"}, {Key: "b", Value: stamped(1, "")}, {Key: "missing"}, {Key: "c", Value: stamped(1, "")}}
	if n, err := bp.MDel(dels); err != nil || n != 3 {
		t.Fatalf("MDel = %d %v, want 3", n, err)
	}
	if n, err := bp.Count(); err != nil || n != 0 {
		t.Fatalf("Count after MDel = %d %v", n, err)
	}
}

// TestBinaryKeyRulesShared: keys keep the text protocol's rules on the
// binary path — client-side ErrBadKey before the wire, and server-side
// rejection for a hand-rolled PDU — because the store is shared and
// keys surface in text KEYS responses.
func TestBinaryKeyRulesShared(t *testing.T) {
	s := testutil.StartKV(t, sockets.ServerConfig{})
	p := binPool(t, s, sockets.PoolConfig{})
	if _, err := p.SetVCtx(context.Background(), "bad key", stamped(1, "v")); !errors.Is(err, sockets.ErrBadKey) {
		t.Fatalf("binary SETV with spacey key: %v, want ErrBadKey", err)
	}
	conn := rawBinaryConn(t, s.Addr())
	resp := sendPDU(t, conn, &wire.Request{Verb: wire.VerbSetV, ID: 1, Key: "bad key", Value: []byte(stamped(1, "v"))})
	if resp.Tag != wire.RespErr {
		t.Fatalf("server accepted spacey key over raw binary: tag 0x%02x", resp.Tag)
	}
}

// TestBinaryMalformedPDUSurvives: frame boundaries hold even when a
// payload is garbage — the server answers RespErr and keeps serving the
// connection, mirroring the text path's ERR-and-continue.
func TestBinaryMalformedPDUSurvives(t *testing.T) {
	s := testutil.StartKV(t, sockets.ServerConfig{})
	conn := rawBinaryConn(t, s.Addr())
	if err := sockets.WriteFrame(conn, []byte{0x7E, 0x01, 0xFF}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	payload, err := sockets.ReadFrame(conn)
	if err != nil {
		t.Fatalf("no response to malformed PDU: %v", err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil || resp.Tag != wire.RespErr {
		t.Fatalf("malformed PDU answered with %v / %+v, want RespErr", err, resp)
	}
	if got := sendPDU(t, conn, &wire.Request{Verb: wire.VerbPing, ID: 2}); got.Tag != wire.RespOK {
		t.Fatalf("connection dead after malformed PDU: tag 0x%02x", got.Tag)
	}
}

// TestBinaryPoolCancelMidRequest: a canceled context unblocks a
// pipelined request immediately (wrapped context.Canceled), without
// killing the shared connection for everyone else, and leaks no
// goroutines.
func TestBinaryPoolCancelMidRequest(t *testing.T) {
	base := testutil.SettleGoroutines()
	s := testutil.StartKV(t, sockets.ServerConfig{
		PreHandle: func(verb, key string) func() {
			if verb != "GET" || key != "stuck" {
				return nil
			}
			return func() { time.Sleep(400 * time.Millisecond) }
		},
	})
	p := binPool(t, s, sockets.PoolConfig{Timeout: 5 * time.Second})
	setv(t, p, "stuck", "s")

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	start := time.Now()
	go func() {
		_, _, err := p.GetCtx(ctx, "stuck")
		errc <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled GET = %v, want wrapped context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
			t.Errorf("cancellation took %v, want immediate", elapsed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled GET never returned")
	}
	// The shared connection survived the abandoned request.
	if v, ok, err := p.Get("other"); err != nil || ok || v != "" {
		t.Fatalf("pool unusable after cancellation: %q %v %v", v, ok, err)
	}
	p.Close()
	s.Close()
	testutil.CheckNoGoroutineLeak(t, base, 3)
}
