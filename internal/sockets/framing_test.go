// Edge-case tests for the wire protocol, written against the public
// surface (package sockets_test) so they can share testutil.StartKV —
// the in-package test files cannot import testutil without a cycle.
package sockets_test

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/sockets"
	"repro/internal/testutil"
)

// rawConn dials the server with no client library in the way, for
// writing deliberately broken bytes.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func roundTrip(t *testing.T, conn net.Conn, req string) string {
	t.Helper()
	if err := sockets.WriteFrame(conn, []byte(req)); err != nil {
		t.Fatalf("write %q: %v", req, err)
	}
	resp, err := sockets.ReadFrame(conn)
	if err != nil {
		t.Fatalf("read response to %q: %v", req, err)
	}
	return string(resp)
}

// TestFramingOversizedValue: a SET whose value pushes the request past
// MaxFrame is rejected client-side before any bytes hit the wire, and
// the connection stays usable for correctly-sized requests — including
// one sized exactly at the limit.
func TestFramingOversizedValue(t *testing.T) {
	s := testutil.StartKV(t, sockets.ServerConfig{})
	c, err := sockets.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	huge := strings.Repeat("v", sockets.MaxFrame)
	if err := c.Set("k", huge); err == nil {
		t.Fatal("SET with an over-limit value succeeded")
	}
	// "SET k " + value == exactly MaxFrame must still work.
	exact := strings.Repeat("v", sockets.MaxFrame-len("SET k "))
	if err := c.Set("k", exact); err != nil {
		t.Fatalf("SET at exactly the frame limit: %v", err)
	}
	got, found, err := c.Get("k")
	if err != nil || !found || got != exact {
		t.Fatalf("limit-sized value did not round-trip (found=%v err=%v len=%d)", found, err, len(got))
	}
}

// TestFramingHugeLengthHeader: a peer announcing a frame bigger than
// MaxFrame is disconnected without the server attempting the
// allocation, and the server keeps serving other connections.
func TestFramingHugeLengthHeader(t *testing.T) {
	s := testutil.StartKV(t, sockets.ServerConfig{})
	evil := rawConn(t, s.Addr())

	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], sockets.MaxFrame+1)
	if _, err := evil.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	evil.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := sockets.ReadFrame(evil); err == nil {
		t.Fatal("server answered a frame it should have rejected")
	}

	c, err := sockets.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("server unhealthy after oversized header: %v", err)
	}
}

// TestFramingEmbeddedCRLF is the regression test for the value rules on
// both protocols. The text path rejects CR/LF values client-side with a
// typed ErrBadValue — the line-oriented protocol cannot carry them
// safely — and the rejection must not poison the connection. The binary
// path has no such restriction: values are length-prefixed opaque
// bytes, and every payload round-trips byte-for-byte.
func TestFramingEmbeddedCRLF(t *testing.T) {
	s := testutil.StartKV(t, sockets.ServerConfig{})
	c, err := sockets.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	crlfValues := []string{"line1\r\nline2", "\r\n", "trailing newline\n", "bare\rcr"}
	for _, val := range crlfValues {
		if err := c.Set("k", val); err == nil {
			t.Fatalf("text SET %q succeeded, want ErrBadValue", val)
		} else if !errors.Is(err, sockets.ErrBadValue) {
			t.Fatalf("text SET %q: got %v, want ErrBadValue", val, err)
		}
	}
	// The rejection happens before the wire: the connection stays good.
	if err := c.Ping(); err != nil {
		t.Fatalf("connection dead after rejected values: %v", err)
	}

	// Values without CR/LF — spaces, tabs, NULs — still round-trip on
	// the text path (they always did; frames are length-delimited).
	for i, val := range []string{"  padded  with  spaces  ", "tabs\tand\x00nul"} {
		key := string(rune('a' + i))
		if err := c.Set(key, val); err != nil {
			t.Fatalf("text SET %q: %v", val, err)
		}
		got, found, err := c.Get(key)
		if err != nil || !found || got != val {
			t.Errorf("text value corrupted: sent %q, got %q (found=%v err=%v)", val, got, found, err)
		}
	}

	// The binary protocol lifts the restriction entirely.
	p, err := sockets.NewPool(s.Addr(), sockets.PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i, val := range append(crlfValues, "  spaces  ", "nul\x00s", "") {
		key := "bin-" + string(rune('a'+i))
		setv(t, p, key, val)
		got, found, err := p.Get(key)
		if err != nil || !found || got != stamped(1, val) {
			t.Errorf("binary value corrupted: sent %q, got %q (found=%v err=%v)", val, got, found, err)
		}
	}
}

// TestFramingServerRejectsCRLFValue: the CR/LF value rule holds on the
// server side too — a hand-rolled text client that skips the library's
// ErrBadValue check gets ERR back, and nothing lands in the store. The
// client-side check alone would leave raw writers able to smuggle
// protocol-shaped text into values other consumers read back.
func TestFramingServerRejectsCRLFValue(t *testing.T) {
	s := testutil.StartKV(t, sockets.ServerConfig{})
	conn := rawConn(t, s.Addr())

	for _, req := range []string{"SET k a\r\nb", "SET k \rcr", "SET k nl\n"} {
		if resp := roundTrip(t, conn, req); !strings.HasPrefix(resp, "ERR") {
			t.Errorf("raw %q: got %q, want ERR...", req, resp)
		}
	}
	if resp := roundTrip(t, conn, "GET k"); resp != "NOTFOUND" {
		t.Errorf("rejected SET reached the store: GET k = %q", resp)
	}
	// The rejection is per-request: the connection keeps serving.
	if resp := roundTrip(t, conn, "SET k clean"); resp != "OK" {
		t.Errorf("connection unusable after rejected values: %q", resp)
	}
}

// TestFramingTruncatedMDel: a client that dies mid-frame (the header
// promises more bytes than ever arrive) must not wedge the server or
// corrupt the store visible to other clients.
func TestFramingTruncatedMDel(t *testing.T) {
	s := testutil.StartKV(t, sockets.ServerConfig{})
	c, err := sockets.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, k := range []string{"alpha", "beta"} {
		if err := c.Set(k, "v"); err != nil {
			t.Fatal(err)
		}
	}

	dead := rawConn(t, s.Addr())
	payload := []byte("MDEL alpha beta")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload))+64) // promise more than we send
	if _, err := dead.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := dead.Write(payload); err != nil {
		t.Fatal(err)
	}
	dead.Close() // die mid-frame

	// The half-frame must have had no effect; the server keeps serving.
	for _, k := range []string{"alpha", "beta"} {
		got, found, err := c.Get(k)
		if err != nil || !found || got != "v" {
			t.Fatalf("key %q damaged by truncated MDEL: found=%v err=%v got=%q", k, found, err, got)
		}
	}
}

// TestFramingMalformedCommandsConnectionSurvives: protocol errors are
// answered with ERR on the same connection — one bad command must not
// poison the session for the requests after it.
func TestFramingMalformedCommandsConnectionSurvives(t *testing.T) {
	s := testutil.StartKV(t, sockets.ServerConfig{})
	conn := rawConn(t, s.Addr())

	for _, bad := range []string{
		"",
		"BOGUS",
		"SET onlykey",
		"GET",
		"GET too many args",
		"MDEL",
		"set lower case works? SplitN says the verb is \"set\"",
	} {
		resp := roundTrip(t, conn, bad)
		if bad == "set lower case works? SplitN says the verb is \"set\"" {
			// ToUpper on the verb makes lowercase legal; it's a valid SET.
			if resp != "OK" {
				t.Errorf("lowercase set: got %q, want OK", resp)
			}
			continue
		}
		if !strings.HasPrefix(resp, "ERR") {
			t.Errorf("malformed %q: got %q, want ERR...", bad, resp)
		}
	}
	if resp := roundTrip(t, conn, "PING"); resp != "PONG" {
		t.Fatalf("connection dead after malformed commands: got %q", resp)
	}
	if got := s.Stats().Errors; got < 5 {
		t.Errorf("server error counter = %d, want >= 5", got)
	}
}

// TestFramingZeroLengthFrame: an empty frame is a legal frame carrying
// an empty (hence unknown) command, not a connection-killer.
func TestFramingZeroLengthFrame(t *testing.T) {
	s := testutil.StartKV(t, sockets.ServerConfig{})
	conn := rawConn(t, s.Addr())
	if resp := roundTrip(t, conn, ""); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("empty frame: got %q, want ERR...", resp)
	}
	if resp := roundTrip(t, conn, "PING"); resp != "PONG" {
		t.Fatalf("connection dead after empty frame: got %q", resp)
	}
}
