// White-box tests for the binary read loop's inline dispatch: they need
// shardFor to hold a store stripe locked mid-request, and inlineVerb to
// see which verbs skip the goroutine, which the public surface
// deliberately doesn't expose.
package sockets

import (
	"net"
	"testing"
	"time"

	"repro/internal/sockets/wire"
)

// TestBinaryInlineDrainOnGracefulClose: a request on the inline fast
// path (no PreHandle hook) must count as in flight — otherwise a
// graceful Close sees the connection as idle, cuts it under a request
// being handled, and the queued response is dropped without the drain
// grace the text and goroutine paths get. Each case wedges an inline
// request (a GET, and a memory-only server's SETV) on its shard's write
// lock, Closes the server mid-handling, then releases the lock and
// requires the response to still arrive.
func TestBinaryInlineDrainOnGracefulClose(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  *wire.Request
		want func(*wire.Response) bool
	}{
		{"GET", &wire.Request{Verb: wire.VerbGet, ID: 1, Key: "k"},
			func(r *wire.Response) bool { return r.Tag == wire.RespValue && string(r.Value) == "v" }},
		{"SETV", &wire.Request{Verb: wire.VerbSetV, ID: 1, Key: "k", Value: []byte(stamped(1, "w"))},
			func(r *wire.Response) bool { return r.Tag == wire.RespCount && r.N == SetVApplied }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewServerConfig("127.0.0.1:0", ServerConfig{DrainTimeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if !s.inlineVerb(tc.req.Verb) {
				t.Fatalf("%s is not served inline; the test needs the inline path", tc.name)
			}

			conn, err := net.DialTimeout("tcp", s.Addr(), 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write([]byte{wire.Magic}); err != nil {
				t.Fatal(err)
			}

			// Hold the shard's write lock so the inline request blocks
			// mid-handling.
			sh := s.shardFor("k")
			lock := sh.lock
			lock.Lock()
			sh.store["k"] = "v"
			if err := WriteFrame(conn, wire.AppendRequest(nil, tc.req)); err != nil {
				lock.Unlock()
				t.Fatal(err)
			}
			for start := time.Now(); s.Stats().Requests == 0; time.Sleep(time.Millisecond) {
				if time.Since(start) > 2*time.Second {
					lock.Unlock()
					t.Fatalf("server never read the %s frame", tc.name)
				}
			}
			time.Sleep(50 * time.Millisecond) // let the handler reach the shard lock

			closed := make(chan error, 1)
			go func() { closed <- s.Close() }()
			time.Sleep(50 * time.Millisecond) // let Close classify the connection
			lock.Unlock()

			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			payload, err := ReadFrame(conn)
			if err != nil {
				t.Fatalf("response dropped by graceful Close: %v", err)
			}
			resp, err := wire.DecodeResponse(payload)
			if err != nil || resp.ID != 1 || !tc.want(resp) {
				t.Fatalf("bad drained response: %+v (err %v)", resp, err)
			}
			select {
			case <-closed:
			case <-time.After(3 * time.Second):
				t.Fatal("Close did not return after the in-flight request drained")
			}
		})
	}
}

// TestInlineDispatch pins which servers answer SETV on the connection's
// read loop. Only a memory-only server without a stall hook or an
// admission bound does: a durable SETV waits on the group commit, a
// PreHandle hook may stall it, and MaxPending needs the goroutine set
// as its queue. GET is inline wherever SETV could be, WAL or not.
func TestInlineDispatch(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cfg       ServerConfig
		setv, get bool
	}{
		{"memory-only", ServerConfig{}, true, true},
		{"durable", ServerConfig{WALDir: t.TempDir()}, false, true},
		{"max-pending", ServerConfig{MaxPending: 64}, false, false},
		{"pre-handle", ServerConfig{PreHandle: func(string, string) {}}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewServerConfig("127.0.0.1:0", tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got := s.inlineVerb(wire.VerbSetV); got != tc.setv {
				t.Errorf("SETV inline = %v, want %v", got, tc.setv)
			}
			if got := s.inlineVerb(wire.VerbGet); got != tc.get {
				t.Errorf("GET inline = %v, want %v", got, tc.get)
			}
			for _, verb := range []byte{wire.VerbMPut, wire.VerbMDel, wire.VerbSyncWAL} {
				if s.inlineVerb(verb) {
					t.Errorf("%s inline, want its own goroutine", wire.VerbName(verb))
				}
			}
		})
	}
}
