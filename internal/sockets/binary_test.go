// End-to-end tests for the binary protocol: negotiation against live
// text clients, pipelined out-of-order completion, retry dedupe by
// correlation ID, batch PDUs, and cancellation — all over real loopback
// sockets (package sockets_test so testutil.StartKV is usable).
package sockets_test

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sockets"
	"repro/internal/sockets/wire"
	"repro/internal/testutil"
)

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
// hand, for driving deliberate PDUs (dedupe probes, malformed frames).
func rawBinaryConn(t *testing.T, addr string, clientID uint64) net.Conn {
	t.Helper()
	conn := rawConn(t, addr)
	hs := make([]byte, 9)
	hs[0] = wire.Magic
	binary.BigEndian.PutUint64(hs[1:], clientID)
	if _, err := conn.Write(hs); err != nil {
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
	if err := p.Set("from-binary", "b"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := p.Get("from-text"); err != nil || !ok || v != "t" {
		t.Fatalf("binary read of text write = %q %v %v", v, ok, err)
	}
	if v, ok, err := c.Get("from-binary"); err != nil || !ok || v != "b" {
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
		PreHandle: func(verb, key string) {
			if verb == "GET" && key == "slow" {
				time.Sleep(stall)
			}
		},
	})
	p := binPool(t, s, sockets.PoolConfig{Timeout: 5 * time.Second})
	if err := p.Set("slow", "s"); err != nil {
		t.Fatal(err)
	}
	if err := p.Set("fast", "f"); err != nil {
		t.Fatal(err)
	}

	var slowDone, fastDone atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if v, ok, err := p.Get("slow"); err != nil || !ok || v != "s" {
			t.Errorf("slow GET = %q %v %v", v, ok, err)
		}
		slowDone.Store(time.Now().UnixNano())
	}()
	time.Sleep(20 * time.Millisecond) // let the slow GET hit the wire first
	start := time.Now()
	for i := 0; i < 16; i++ {
		if v, ok, err := p.Get("fast"); err != nil || !ok || v != "f" {
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

// TestBinaryDedupeRetriedID: re-sending a mutation under an
// already-answered correlation ID — what the Pool does when a response
// is lost in transit — must replay the recorded response, not apply a
// second time. The probe sends a DIFFERENT op under the same ID so an
// accidental re-apply is visible in the store.
func TestBinaryDedupeRetriedID(t *testing.T) {
	s := testutil.StartKV(t, sockets.ServerConfig{})
	conn := rawBinaryConn(t, s.Addr(), 71)

	set := &wire.Request{Verb: wire.VerbSet, ID: 7, Key: "k", Value: []byte("v1")}
	if resp := sendPDU(t, conn, set); resp.Tag != wire.RespOK {
		t.Fatalf("first SET: tag 0x%02x", resp.Tag)
	}
	// "Retry" the same ID, but as a DEL: a deduping server answers from
	// the recording (RespOK from the SET) and leaves the store alone.
	del := &wire.Request{Verb: wire.VerbDel, ID: 7, Key: "k"}
	if resp := sendPDU(t, conn, del); resp.Tag != wire.RespOK {
		t.Fatalf("replayed ID: tag 0x%02x", resp.Tag)
	}
	if resp := sendPDU(t, conn, &wire.Request{Verb: wire.VerbGet, ID: 8, Key: "k"}); resp.Tag != wire.RespValue || string(resp.Value) != "v1" {
		t.Fatalf("key mutated by deduped retry: tag 0x%02x value %q", resp.Tag, resp.Value)
	}
	if got := s.DedupeHits(); got != 1 {
		t.Errorf("DedupeHits = %d, want 1", got)
	}

	// A different client reusing the same correlation ID is NOT a
	// retry: dedupe keys on (client ID, correlation ID).
	other := rawBinaryConn(t, s.Addr(), 72)
	if resp := sendPDU(t, other, &wire.Request{Verb: wire.VerbDel, ID: 7, Key: "k"}); resp.Tag != wire.RespOK {
		t.Fatalf("other client's DEL: tag 0x%02x", resp.Tag)
	}
	if resp := sendPDU(t, conn, &wire.Request{Verb: wire.VerbGet, ID: 9, Key: "k"}); resp.Tag != wire.RespNotFound {
		t.Fatalf("other client's DEL did not apply: tag 0x%02x", resp.Tag)
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
	if err := p.Set("k", "v"); err != nil {
		t.Fatalf("SET through injected kill: %v", err)
	}
	if v, ok, err := p.Get("k"); err != nil || !ok || v != "v" {
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

	pairs := []sockets.KV{{Key: "a", Value: "1"}, {Key: "b", Value: "2 with spaces"}, {Key: "c", Value: "3"}}
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
	wantV := []string{"1", "2 with spaces", "", "3"}
	wantF := []bool{true, true, false, true}
	for i := range wantV {
		if values[i] != wantV[i] || found[i] != wantF[i] {
			t.Errorf("MGET[%d] = %q/%v, want %q/%v", i, values[i], found[i], wantV[i], wantF[i])
		}
	}
	if n, err := bp.MDel("a", "b", "missing", "c"); err != nil || n != 3 {
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
	if err := p.Set("bad key", "v"); !errors.Is(err, sockets.ErrBadKey) {
		t.Fatalf("binary SET with spacey key: %v, want ErrBadKey", err)
	}
	conn := rawBinaryConn(t, s.Addr(), 99)
	resp := sendPDU(t, conn, &wire.Request{Verb: wire.VerbSet, ID: 1, Key: "bad key", Value: []byte("v")})
	if resp.Tag != wire.RespErr {
		t.Fatalf("server accepted spacey key over raw binary: tag 0x%02x", resp.Tag)
	}
}

// TestBinaryMalformedPDUSurvives: frame boundaries hold even when a
// payload is garbage — the server answers RespErr and keeps serving the
// connection, mirroring the text path's ERR-and-continue.
func TestBinaryMalformedPDUSurvives(t *testing.T) {
	s := testutil.StartKV(t, sockets.ServerConfig{})
	conn := rawBinaryConn(t, s.Addr(), 5)
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
		PreHandle: func(verb, key string) {
			if verb == "GET" && key == "stuck" {
				time.Sleep(400 * time.Millisecond)
			}
		},
	})
	p := binPool(t, s, sockets.PoolConfig{Timeout: 5 * time.Second})
	if err := p.Set("stuck", "s"); err != nil {
		t.Fatal(err)
	}

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
