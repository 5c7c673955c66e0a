// White-box tests for the binary read loop's inline dispatch: they need
// stripeOf to hold a store stripe locked mid-request, and inlineVerb to
// see which verbs skip the goroutine, which the public surface
// deliberately doesn't expose.
package sockets

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/sockets/wire"
)

// stripeOf is the store stripe holding key, and key's offset in it.
func (s *Server) stripeOf(key string) (*stripe, uint32) { return s.store.locate(db.RingPos(key)) }

// TestBinaryInlineDrainOnGracefulClose: a request on the inline fast
// path (no PreHandle hook) must count as in flight — otherwise a
// graceful Close sees the connection as idle, cuts it under a request
// being handled, and the queued response is dropped without the drain
// grace the text and goroutine paths get. Each case wedges an inline
// request (a GET, a memory-only server's SETV, and a durable server's
// SETV) on its shard's write lock, Closes the server mid-handling, then
// releases the lock and requires the response to still arrive. The
// durable case first pipelines SETVs on other shards, so the wedged one
// is the last of many answered from the WAL's commit loop: it reserves
// its log position after Close began and waits on an fsync under it.
// Close must deliver every response and leave no goroutine behind.
func TestBinaryInlineDrainOnGracefulClose(t *testing.T) {
	for _, tc := range []struct {
		name    string
		durable bool
		req     *wire.Request
		want    func(*wire.Response) bool
	}{
		{"GET", false, &wire.Request{Verb: wire.VerbGet, Key: "k"},
			func(r *wire.Response) bool { return r.Tag == wire.RespValue && string(r.Value) == "v" }},
		{"SETV", false, &wire.Request{Verb: wire.VerbSetV, Key: "k", Value: []byte(stamped(1, "w"))},
			func(r *wire.Response) bool { return r.Tag == wire.RespCount && r.N == SetVApplied }},
		{"durable-SETV", true, &wire.Request{Verb: wire.VerbSetV, Key: "k", Value: []byte(stamped(1, "w"))},
			func(r *wire.Response) bool { return r.Tag == wire.RespCount && r.N == SetVApplied }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			goroutines := runtime.NumGoroutine()
			cfg := ServerConfig{DrainTimeout: 5 * time.Second}
			if tc.durable {
				cfg.WALDir = t.TempDir()
			}
			s, err := NewServerConfig("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if !inlineVerb(tc.req.Verb) {
				t.Fatalf("%s is not served inline; the test needs the inline path", tc.name)
			}

			conn, err := net.DialTimeout("tcp", s.Addr(), 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			// Hold the shard's write lock so the inline request blocks
			// mid-handling.
			sh, at := s.stripeOf("k")
			lock := sh.lock
			lock.Lock()
			sh.set(at, "k", "v")
			// One write: the handshake, SETVs on keys outside the wedged
			// shard (durable case), then the wedged request, last.
			buf := []byte{wire.Magic}
			var id uint64
			if tc.durable {
				for i := 0; id < 32; i++ {
					key := fmt.Sprintf("other-%d", i)
					if other, _ := s.stripeOf(key); other == sh {
						continue
					}
					id++
					buf = appendFrame(buf, wire.AppendRequest(nil, &wire.Request{Verb: wire.VerbSetV, ID: id, Key: key, Value: []byte(stamped(1, key))}))
				}
			}
			wedged := *tc.req
			id++
			wedged.ID = id
			buf = appendFrame(buf, wire.AppendRequest(nil, &wedged))
			if _, err := conn.Write(buf); err != nil {
				lock.Unlock()
				t.Fatal(err)
			}
			for start := time.Now(); s.Stats().Requests < int64(id); time.Sleep(time.Millisecond) {
				if time.Since(start) > 2*time.Second {
					lock.Unlock()
					t.Fatalf("server read %d of %d frames", s.Stats().Requests, id)
				}
			}
			time.Sleep(50 * time.Millisecond) // let the handler reach the shard lock

			closed := make(chan error, 1)
			go func() { closed <- s.Close() }()
			time.Sleep(50 * time.Millisecond) // let Close classify the connection
			lock.Unlock()

			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			for got := map[uint64]bool{}; len(got) < int(id); {
				payload, err := ReadFrame(conn)
				if err != nil {
					t.Fatalf("response dropped by graceful Close after %d of %d: %v", len(got), id, err)
				}
				resp, err := wire.DecodeResponse(payload)
				if err != nil || got[resp.ID] || resp.ID > id {
					t.Fatalf("bad drained response: %+v (err %v)", resp, err)
				}
				if (resp.ID == id && !tc.want(resp)) || (resp.ID < id && (resp.Tag != wire.RespCount || resp.N != SetVApplied)) {
					t.Fatalf("bad drained response: %+v", resp)
				}
				got[resp.ID] = true
			}
			select {
			case <-closed:
			case <-time.After(3 * time.Second):
				t.Fatal("Close did not return after the in-flight request drained")
			}
			for start := time.Now(); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
				if time.Since(start) > 2*time.Second {
					t.Fatalf("%d goroutines after Close, %d before the server started", runtime.NumGoroutine(), goroutines)
				}
			}
		})
	}
}

// TestBinaryDrainAnswersEveryInFlightRequest: when a graceful Close
// finds several requests in flight on one binary connection, the first
// to finish must not tear the connection down under the others. Two
// GETs stall in PreHandle for different times; Close comes while both
// are in flight, and both responses must arrive.
func TestBinaryDrainAnswersEveryInFlightRequest(t *testing.T) {
	started := make(chan struct{}, 2)
	s, err := NewServerConfig("127.0.0.1:0", ServerConfig{DrainTimeout: 5 * time.Second,
		PreHandle: func(_, key string) func() {
			return func() {
				started <- struct{}{}
				if key == "slow" {
					time.Sleep(200 * time.Millisecond)
				} else {
					time.Sleep(20 * time.Millisecond)
				}
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.DialTimeout("tcp", s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := []byte{wire.Magic}
	buf = appendFrame(buf, wire.AppendRequest(nil, &wire.Request{Verb: wire.VerbGet, ID: 1, Key: "fast"}))
	buf = appendFrame(buf, wire.AppendRequest(nil, &wire.Request{Verb: wire.VerbGet, ID: 2, Key: "slow"}))
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	<-started
	<-started
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()

	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for got := map[uint64]bool{}; len(got) < 2; {
		payload, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("response dropped by graceful Close after %d of 2: %v", len(got), err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil || resp.Tag != wire.RespNotFound || got[resp.ID] {
			t.Fatalf("bad drained response: %+v (err %v)", resp, err)
		}
		got[resp.ID] = true
	}
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close did not return after the in-flight requests drained")
	}
}

// TestInlineDurableSetV_HeldInFlightUntilAnswered: a durable SETV the
// read loop has applied and logged keeps its admission slot and its
// place in the connection's in-flight count until the commit loop has
// queued its response, not just until the read loop moves on. The test
// holds the connection's frameWriter lock, so the commit loop's callback
// stalls after the fsync with the response not yet queued. In that
// state the slot and the in-flight count must still be taken, and a
// graceful Close must wait for the response instead of cutting the
// connection as idle.
func TestInlineDurableSetV_HeldInFlightUntilAnswered(t *testing.T) {
	s, err := NewServerConfig("127.0.0.1:0", ServerConfig{WALDir: t.TempDir(), DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.DialTimeout("tcp", s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{wire.Magic}); err != nil {
		t.Fatal(err)
	}
	var cs *connState
	for start := time.Now(); cs == nil; time.Sleep(time.Millisecond) {
		if time.Since(start) > 2*time.Second {
			t.Fatal("the binary connection never published its writer")
		}
		s.mu.Lock()
		for c := range s.active {
			c.mu.Lock()
			if c.fw != nil {
				cs = c
			}
			c.mu.Unlock()
		}
		s.mu.Unlock()
	}

	cs.fw.mu.Lock() // the commit loop's callback stalls on this
	locked := true
	defer func() {
		if locked {
			cs.fw.mu.Unlock()
		}
	}()
	req := &wire.Request{Verb: wire.VerbSetV, ID: 7, Key: "k", Value: []byte(stamped(1, "w"))}
	if err := WriteFrame(conn, wire.AppendRequest(nil, req)); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		if appends, _ := s.WALStats(); appends == 1 {
			break
		}
		if time.Since(start) > 2*time.Second {
			t.Fatal("the SETV was never fsynced")
		}
	}
	cs.mu.Lock()
	inflight := cs.inflight
	cs.mu.Unlock()
	if s.Pending() != 1 || inflight != 1 {
		t.Fatalf("fsynced SETV awaiting its answer: pending %d, in flight %d; want 1 and 1", s.Pending(), inflight)
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	time.Sleep(50 * time.Millisecond) // let Close classify the connection
	locked = false
	cs.fw.mu.Unlock()

	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	payload, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("response dropped by graceful Close: %v", err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil || resp.ID != 7 || resp.Tag != wire.RespCount || resp.N != SetVApplied {
		t.Fatalf("bad drained response: %+v (err %v)", resp, err)
	}
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close did not return after the response drained")
	}
}

// appendFrame appends payload to dst as one length-prefixed frame.
func appendFrame(dst, payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(dst, uint32(len(payload))), payload...)
}

// TestInlineDispatch pins the one dispatch rule: the verb decides
// whether the binary read loop serves a request itself, and only a stall
// returned by the PreHandle hook takes a request off the loop. Neither an
// admission bound nor a hook that returns no stall moves GET or SETV off
// it, on memory-only and durable servers alike (a durable SETV is
// answered by the WAL's commit loop after its fsync).
func TestInlineDispatch(t *testing.T) {
	for verb, want := range map[byte]bool{
		wire.VerbPing: true, wire.VerbGet: true, wire.VerbCount: true, wire.VerbSetV: true,
		wire.VerbMGet: false, wire.VerbMPut: false, wire.VerbMDel: false,
		wire.VerbScan: false, wire.VerbTree: false, wire.VerbSyncWAL: false,
	} {
		if got := inlineVerb(verb); got != want {
			t.Errorf("%s inline = %v, want %v", wire.VerbName(verb), got, want)
		}
	}
	noStall := func(string, string) func() { return nil }
	stallKey := func(_, key string) func() {
		if key != "k" {
			return nil
		}
		return func() {}
	}
	for _, tc := range []struct {
		name    string
		cfg     ServerConfig
		durable bool
		inline  bool
	}{
		{"memory-only", ServerConfig{}, false, true},
		{"durable", ServerConfig{}, true, true},
		{"max-pending", ServerConfig{MaxPending: 64}, false, true},
		{"pre-handle", ServerConfig{PreHandle: noStall}, false, true},
		{"stalled", ServerConfig{PreHandle: stallKey}, false, false},
		{"durable-stalled", ServerConfig{PreHandle: stallKey}, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, req := range []wire.Request{
				{Verb: wire.VerbGet, Key: "k"},
				{Verb: wire.VerbSetV, Key: "k", Value: []byte(stamped(1, "w"))},
			} {
				t.Run(wire.VerbName(req.Verb), func(t *testing.T) {
					cfg := tc.cfg
					if tc.durable {
						cfg.WALDir = t.TempDir()
					}
					// A row served off the loop gets a wide window for the
					// PING's reply, so a slow host cannot read it as inline;
					// an inline row waits out its window, so keep it short.
					window := 200 * time.Millisecond
					if !tc.inline {
						window = time.Second
					}
					if got := servedOnReadLoop(t, cfg, &req, window); got != tc.inline {
						t.Errorf("served on the read loop = %v, want %v", got, tc.inline)
					}
				})
			}
		})
	}
}

// servedOnReadLoop reports whether a server built from cfg serves req on
// the connection's read loop. It wedges req on its shard's write lock and
// pipelines a PING behind it: a read loop busy with req cannot read the
// PING, so no response arrives within window until the lock is released.
func servedOnReadLoop(t *testing.T, cfg ServerConfig, req *wire.Request, window time.Duration) bool {
	t.Helper()
	cfg.DrainTimeout = time.Second
	s, err := NewServerConfig("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.DialTimeout("tcp", s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	sh, _ := s.stripeOf(req.Key)
	lock := sh.lock
	lock.Lock()
	locked := true
	defer func() {
		if locked {
			lock.Unlock()
		}
	}()
	wedged := *req
	wedged.ID = 1
	buf := []byte{wire.Magic}
	buf = appendFrame(buf, wire.AppendRequest(nil, &wedged))
	buf = appendFrame(buf, wire.AppendRequest(nil, &wire.Request{Verb: wire.VerbPing, ID: 2}))
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); s.Stats().Requests < 1; time.Sleep(time.Millisecond) {
		if time.Since(start) > 2*time.Second {
			t.Fatal("the server never read the wedged request")
		}
	}

	// Off the loop, the PING is answered while req waits on the lock.
	conn.SetReadDeadline(time.Now().Add(window))
	got := map[uint64]bool{}
	if payload, err := ReadFrame(conn); err == nil {
		resp, err := wire.DecodeResponse(payload)
		if err != nil || resp.ID != 2 {
			t.Fatalf("response while %s is wedged: %+v (err %v), want the PING's", wire.VerbName(req.Verb), resp, err)
		}
		got[resp.ID] = true
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatal(err)
	}
	inline := len(got) == 0
	locked = false
	lock.Unlock()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for len(got) < 2 {
		payload, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("%d of 2 responses: %v", len(got), err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil || resp.Tag == wire.RespErr || got[resp.ID] {
			t.Fatalf("bad response: %+v (err %v)", resp, err)
		}
		got[resp.ID] = true
	}
	return inline
}
