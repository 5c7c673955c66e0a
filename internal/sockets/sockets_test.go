package sockets

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sockets/wire"
)

func startServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []string{"", "a", "hello world", strings.Repeat("x", 10000)}
	for _, m := range msgs {
		if err := WriteFrame(&buf, []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("frame = %q, want %q", got, want)
		}
	}
}

func TestFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); err == nil {
		t.Error("oversized write should error")
	}
	// Forged oversized header.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("oversized header should error")
	}
	// Truncated payload.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 10, 'h', 'i'})
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("truncated frame should error")
	}
}

func TestKVBasics(t *testing.T) {
	s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("course", "cs31"); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get("course")
	if err != nil || !found || v != "cs31" {
		t.Errorf("Get = %q %v %v", v, found, err)
	}
	if _, found, _ := c.Get("missing"); found {
		t.Error("missing key reported found")
	}
	if err := c.Set("spaces", "value with spaces"); err != nil {
		t.Fatal(err)
	}
	v, _, _ = c.Get("spaces")
	if v != "value with spaces" {
		t.Errorf("spaces value = %q", v)
	}
	n, err := c.Count()
	if err != nil || n != 2 {
		t.Errorf("Count = %d %v", n, err)
	}
	ok, err := c.Del("course")
	if err != nil || !ok {
		t.Errorf("Del = %v %v", ok, err)
	}
	ok, _ = c.Del("course")
	if ok {
		t.Error("second delete should report missing")
	}
}

func TestConcurrentClients(t *testing.T) {
	s := startServer(t)
	const clients, perClient = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < perClient; j++ {
				key := fmt.Sprintf("k-%d-%d", i, j)
				if err := c.Set(key, fmt.Sprintf("v%d", j)); err != nil {
					errs <- err
					return
				}
				v, found, err := c.Get(key)
				if err != nil || !found || v != fmt.Sprintf("v%d", j) {
					errs <- fmt.Errorf("get %s = %q %v %v", key, v, found, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c, _ := Dial(s.Addr())
	defer c.Close()
	n, err := c.Count()
	if err != nil || n != clients*perClient {
		t.Errorf("Count = %d, want %d (%v)", n, clients*perClient, err)
	}
	st := s.Stats()
	if st.Connections < clients {
		t.Errorf("connections = %d", st.Connections)
	}
	if st.Requests < clients*perClient*2 {
		t.Errorf("requests = %d", st.Requests)
	}
}

func TestProtocolErrors(t *testing.T) {
	s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.roundTrip("BOGUS stuff")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp, "ERR") {
		t.Errorf("resp = %q", resp)
	}
	resp, _ = c.roundTrip("SET onlykey")
	if !strings.HasPrefix(resp, "ERR") {
		t.Errorf("malformed SET resp = %q", resp)
	}
	resp, _ = c.roundTrip("GET")
	if !strings.HasPrefix(resp, "ERR") {
		t.Errorf("malformed GET resp = %q", resp)
	}
}

func TestVisibilityAcrossConnections(t *testing.T) {
	s := startServer(t)
	a, _ := Dial(s.Addr())
	defer a.Close()
	b, _ := Dial(s.Addr())
	defer b.Close()
	if err := a.Set("shared", "42"); err != nil {
		t.Fatal(err)
	}
	v, found, err := b.Get("shared")
	if err != nil || !found || v != "42" {
		t.Errorf("cross-connection read = %q %v %v", v, found, err)
	}
}

func TestFrameBoundaries(t *testing.T) {
	var buf bytes.Buffer
	// Zero-length frame round-trips.
	if err := WriteFrame(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil || len(got) != 0 {
		t.Errorf("zero-length frame = %q, %v", got, err)
	}
	// A frame of exactly MaxFrame is legal on both sides.
	buf.Reset()
	big := bytes.Repeat([]byte{'x'}, MaxFrame)
	if err := WriteFrame(&buf, big); err != nil {
		t.Fatalf("MaxFrame write: %v", err)
	}
	got, err = ReadFrame(&buf)
	if err != nil || len(got) != MaxFrame {
		t.Errorf("MaxFrame read = %d bytes, %v", len(got), err)
	}
	// MaxFrame+1 is rejected by the reader even when forged.
	buf.Reset()
	var hdr [4]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0x00, 0x10, 0x00, 0x01 // 1<<20 + 1
	buf.Write(hdr[:])
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("MaxFrame+1 header should error")
	}
	// Truncated header: fewer than 4 bytes then EOF.
	buf.Reset()
	buf.Write([]byte{0, 0})
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("truncated header should error")
	}
}

func TestKeysCommand(t *testing.T) {
	s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys, err := c.Keys()
	if err != nil || len(keys) != 0 {
		t.Errorf("empty Keys = %v, %v", keys, err)
	}
	for _, k := range []string{"cherry", "apple", "banana"} {
		if err := c.Set(k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	keys, err = c.Keys()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"apple", "banana", "cherry"}
	if len(keys) != len(want) {
		t.Fatalf("Keys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys = %v, want %v (sorted)", keys, want)
		}
	}
}

func TestKeyValidation(t *testing.T) {
	s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, bad := range []string{"", "two words", "tab\tkey", "line\nbreak"} {
		if err := c.Set(bad, "v"); !errors.Is(err, ErrBadKey) {
			t.Errorf("Set(%q) = %v, want ErrBadKey", bad, err)
		}
		if _, _, err := c.Get(bad); !errors.Is(err, ErrBadKey) {
			t.Errorf("Get(%q) = %v, want ErrBadKey", bad, err)
		}
		if _, err := c.Del(bad); !errors.Is(err, ErrBadKey) {
			t.Errorf("Del(%q) = %v, want ErrBadKey", bad, err)
		}
	}
	// The rejection happens client-side: no store corruption.
	if n, err := c.Count(); err != nil || n != 0 {
		t.Errorf("Count after rejected sets = %d, %v", n, err)
	}
}

func TestShardedStoreSpreadsKeys(t *testing.T) {
	s, err := NewServerConfig("127.0.0.1:0", ServerConfig{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 64; i++ {
		if err := c.Set(fmt.Sprintf("key-%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	occupied, total := 0, 0
	for i := range s.store.stripes {
		if n := s.store.stripes[i].n; n > 0 {
			occupied++
			total += n
		}
	}
	if total != 64 {
		t.Errorf("shards hold %d keys, want 64", total)
	}
	if occupied < 2 {
		t.Errorf("only %d of 8 shards occupied — ring-arc striping is broken", occupied)
	}
	// COUNT and KEYS must agree across stripes.
	if n, err := c.Count(); err != nil || n != 64 {
		t.Errorf("Count = %d, %v", n, err)
	}
	keys, err := c.Keys()
	if err != nil || len(keys) != 64 {
		t.Errorf("Keys len = %d, %v", len(keys), err)
	}
}

func TestServerDrainsInFlightOnClose(t *testing.T) {
	s, err := NewServerConfig("127.0.0.1:0", ServerConfig{Shards: 4, DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	const delay = 150 * time.Millisecond
	started := make(chan struct{}, 1)
	s.preHandle = func(verb, _ string) func() {
		if verb != "SET" {
			return nil
		}
		return func() {
			started <- struct{}{}
			time.Sleep(delay)
		}
	}
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	setDone := make(chan error, 1)
	go func() { setDone <- c.Set("slow", "request") }()
	<-started // the request is observably in-flight
	closeStart := time.Now()
	if err := s.Close(); err != nil {
		t.Logf("close: %v", err)
	}
	closeElapsed := time.Since(closeStart)
	// Close must have waited for the in-flight request...
	if err := <-setDone; err != nil {
		t.Errorf("in-flight Set was cut instead of drained: %v", err)
	}
	if closeElapsed < delay/2 {
		t.Errorf("Close returned in %v, before the in-flight request could finish", closeElapsed)
	}
	// ...and the connection is shut afterwards.
	if err := c.Ping(); err == nil {
		t.Error("ping succeeded after drain-close")
	}
}

func TestServerCloseCutsIdleConnectionsQuickly(t *testing.T) {
	s, err := NewServerConfig("127.0.0.1:0", ServerConfig{DrainTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	s.Close()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Close with only an idle connection took %v — idle conns should be cut, not drained", elapsed)
	}
}

func TestServerErrorCounter(t *testing.T) {
	s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.roundTrip("BOGUS"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.roundTrip("SET onlykey"); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Errors != 2 {
		t.Errorf("Errors = %d, want 2", st.Errors)
	}
	if st.Requests != 3 {
		t.Errorf("Requests = %d, want 3", st.Requests)
	}
	if s.Latency().Count() != st.Requests {
		t.Errorf("latency histogram has %d observations, want %d", s.Latency().Count(), st.Requests)
	}
}

// TestStatsCountedBeforeReply: every serving path — the text loop and
// the binary inline and goroutine paths — accounts a request's latency
// before its response leaves, so a client holding its reply always
// finds Latency().Count() == Stats().Requests.
func TestStatsCountedBeforeReply(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    ServerConfig
		binary bool
	}{
		{"text", ServerConfig{}, false},
		{"binary-inline", ServerConfig{}, true},
		// A stall, even one that does nothing, moves its PDU onto a
		// goroutine of its own.
		{"binary-goroutine", ServerConfig{PreHandle: func(string, string) func() { return func() {} }}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewServerConfig("127.0.0.1:0", tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var ping func() error
			if tc.binary {
				p, err := NewPool(s.Addr(), PoolConfig{})
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				ping = p.Ping
			} else {
				c, err := Dial(s.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				ping = c.Ping
			}
			for i := 0; i < 500; i++ {
				if err := ping(); err != nil {
					t.Fatal(err)
				}
				if got, want := s.Latency().Count(), s.Stats().Requests; got != want {
					t.Fatalf("after reply %d: latency histogram has %d observations, server counted %d requests", i, got, want)
				}
			}
		})
	}
}

// TestTextServesLabVerbsOnly: the text protocol is the CS87 lab's. Its
// seven verbs work; the cluster's verbs exist only in the binary
// protocol and are unknown commands here.
func TestTextServesLabVerbsOnly(t *testing.T) {
	s := startServer(t)
	for _, req := range []string{"SETV k 1@1 v x", "TREE 0-4096", "SCAN 0-4096"} {
		if resp := rawRequest(t, s.Addr(), req); resp != "ERR unknown command" {
			t.Errorf("%q = %q, want ERR unknown command", req, resp)
		}
	}
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"b", "a", "c"} {
		if err := c.Set(k, "v "+k); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok, err := c.Get("a"); err != nil || !ok || v != "v a" {
		t.Errorf("GET a = %q %v %v", v, ok, err)
	}
	if ok, err := c.Del("c"); err != nil || !ok {
		t.Errorf("DEL c = %v %v", ok, err)
	}
	if n, err := c.MDel("b", "missing"); err != nil || n != 1 {
		t.Errorf("MDEL = %d %v, want 1", n, err)
	}
	if n, err := c.Count(); err != nil || n != 1 {
		t.Errorf("COUNT = %d %v, want 1", n, err)
	}
	if keys, err := c.Keys(); err != nil || len(keys) != 1 || keys[0] != "a" {
		t.Errorf("KEYS = %v %v, want [a]", keys, err)
	}
}

// TestPreHandleVerbAndKey: the PreHandle hook sees the command word and
// key of a single-key request whichever protocol carried it, so fault
// hooks match on the verb without caring about the transport.
func TestPreHandleVerbAndKey(t *testing.T) {
	type call struct{ verb, key string }
	seen := make(chan call, 1)
	s, err := NewServerConfig("127.0.0.1:0", ServerConfig{
		PreHandle: func(verb, key string) func() { seen <- call{verb, key}; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := NewPool(s.Addr(), PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, tc := range []struct {
		text string
		want call
	}{
		{"SET k v w", call{"SET", "k"}},
		{"GET k", call{"GET", "k"}},
		{"DEL k", call{"DEL", "k"}},
	} {
		if _, err := c.roundTrip(tc.text); err != nil {
			t.Fatal(err)
		}
		if got := <-seen; got != tc.want {
			t.Errorf("text %q: PreHandle saw %+v, want %+v", tc.text, got, tc.want)
		}
	}
	for _, tc := range []struct {
		bin  wire.Request
		want call
	}{
		{wire.Request{Verb: wire.VerbSetV, Key: "k", Value: []byte(stamped(1, "v w"))}, call{"SETV", "k"}},
		{wire.Request{Verb: wire.VerbGet, Key: "k"}, call{"GET", "k"}},
	} {
		if _, err := p.do(context.Background(), &tc.bin); err != nil {
			t.Fatal(err)
		}
		if got := <-seen; got != tc.want {
			t.Errorf("binary %s: PreHandle saw %+v, want %+v", tc.want.verb, got, tc.want)
		}
	}
}

func TestServerCloseStopsAccepting(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if err := s.Close(); err != nil {
		t.Logf("close: %v", err)
	}
	if c, err := Dial(addr); err == nil {
		// Connection may be accepted by the OS backlog; a request must fail.
		if err := c.Ping(); err == nil {
			t.Error("ping succeeded after Close")
		}
		c.Close()
	}
}

func TestMDelCommand(t *testing.T) {
	s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a mix of present and missing keys: only present ones count.
	n, err := c.MDel("k0", "k1", "k2", "missing", "k3")
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("MDel deleted %d, want 4", n)
	}
	left, err := c.Count()
	if err != nil {
		t.Fatal(err)
	}
	if left != 6 {
		t.Errorf("count after MDel = %d, want 6", left)
	}
	// Zero keys is a client-side no-op.
	if n, err := c.MDel(); err != nil || n != 0 {
		t.Errorf("empty MDel = (%d, %v)", n, err)
	}
	// Bad keys are rejected before touching the wire.
	if _, err := c.MDel("ok", "bad key"); !errors.Is(err, ErrBadKey) {
		t.Errorf("whitespace key error = %v, want ErrBadKey", err)
	}
	// Bare MDEL on the wire is a usage error.
	resp := rawRequest(t, s.Addr(), "MDEL")
	if !strings.HasPrefix(resp, "ERR") {
		t.Errorf("bare MDEL = %q, want ERR", resp)
	}
}

func TestMDelChunksLargeBatches(t *testing.T) {
	s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Enough long keys that one MDEL frame would blow mdelChunkBytes
	// many times over; the client must split transparently.
	const n = 4000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d-%s", i, strings.Repeat("x", 60))
		if err := c.Set(keys[i], "v"); err != nil {
			t.Fatal(err)
		}
	}
	deleted, err := c.MDel(keys...)
	if err != nil {
		t.Fatal(err)
	}
	if deleted != n {
		t.Errorf("MDel deleted %d, want %d", deleted, n)
	}
	if left, _ := c.Count(); left != 0 {
		t.Errorf("count after chunked MDel = %d", left)
	}
}

// rawRequest opens a bare connection and round-trips one frame, for
// protocol cases the typed clients refuse to send.
func rawRequest(t *testing.T, addr, req string) string {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.roundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
