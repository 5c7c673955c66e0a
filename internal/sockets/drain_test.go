// White-box test for graceful-close drain on the binary fast path: it
// needs shardFor to hold a store stripe locked mid-request, which the
// public surface deliberately doesn't expose.
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
// grace the text and goroutine paths get. The test wedges a GET on its
// shard's write lock, Closes the server mid-handling, then releases the
// lock and requires the response to still arrive.
func TestBinaryInlineDrainOnGracefulClose(t *testing.T) {
	s, err := NewServerConfig("127.0.0.1:0", ServerConfig{DrainTimeout: 5 * time.Second})
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

	// Hold the shard's write lock so the inline GET blocks mid-handling.
	sh := s.shardFor("k")
	lock := sh.lock
	lock.Lock()
	sh.store["k"] = "v"
	req := &wire.Request{Verb: wire.VerbGet, ID: 1, Key: "k"}
	if err := WriteFrame(conn, wire.AppendRequest(nil, req)); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); s.Stats().Requests == 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 2*time.Second {
			lock.Unlock()
			t.Fatal("server never read the GET frame")
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
	if err != nil || resp.Tag != wire.RespValue || resp.ID != 1 || string(resp.Value) != "v" {
		t.Fatalf("bad drained response: %+v (err %v), want RespValue \"v\" id 1", resp, err)
	}
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close did not return after the in-flight request drained")
	}
}
