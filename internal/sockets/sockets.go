// Package sockets implements the TCP client-server content of Table II
// ("TCP-IP sockets") and the CS87 socket lab: a length-prefixed framing
// protocol, a concurrent in-memory key-value server with one goroutine
// per connection, and client libraries — the request/response structure
// students build in C, over real loopback sockets.
//
// The server has grown from the lab's single-map toy into a hardened
// serving layer: the store is cut into N stripes by ring arc, each
// guarded by its own readers-writer lock and packed into ring-ordered
// copy-on-write cells (store.go), Close drains in-flight requests
// before hard-closing connections, and per-server counters plus a
// latency histogram (metrics.Histogram) make throughput studies
// measurable. Pool adds the production-shaped client the cluster uses:
// one pipelined binary-protocol connection with per-request deadlines
// and bounded, jittered retry.
package sockets

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/merkle"
	"repro/internal/metrics"
	"repro/internal/sockets/wire"
	"repro/internal/wal"
)

// MaxFrame bounds a single message to keep malformed peers from forcing
// huge allocations.
const MaxFrame = 1 << 20

// WriteFrame writes one length-prefixed message.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("sockets: frame of %d exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed message into a buffer of its own.
func ReadFrame(r io.Reader) ([]byte, error) { return readFrame(r, nil) }

// readFrame reads one length-prefixed message into buf when buf has the
// room, and into a fresh buffer when it does not (or is nil). The
// pipelined read loops pass the previous frame's buffer back in, so a
// connection reads every frame into the same memory; whatever they keep
// past the next read they must copy out first. The length header is read
// into buf as well: a header array of its own would escape to the heap.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("sockets: frame of %d exceeds limit", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// reuseFrame returns a frame buffer for the next readFrame, or nil when
// the frame was big enough (an MPUT batch, a SYNCWAL chunk) that keeping
// it would pin that size on the connection.
func reuseFrame(frame []byte) []byte {
	if cap(frame) > maxKeptBuffer {
		return nil
	}
	return frame
}

// Stats counts activity. A Server fills Connections, Requests, and
// Errors; a Pool fills Requests, Errors, and Retries.
type Stats struct {
	Connections int64 // connections accepted (server)
	Requests    int64 // requests handled (server) or issued (pool)
	Errors      int64 // ERR responses sent (server) or failed attempts (pool)
	Retries     int64 // attempts re-sent after transport errors (pool)
}

// ServerConfig parameterizes a server.
type ServerConfig struct {
	// Shards is the number of store stripes, each guarded by its own
	// readers-writer lock so concurrent traffic on different keys does
	// not serialize on one global lock. Stripe i holds the keys whose
	// ring positions (db.RingPos) fall in the i-th of Shards equal arcs
	// of the ring, so one ring hash per key picks its stripe, its cell
	// and its Merkle bucket. 1 reproduces the original single-lock
	// server. Default 16.
	Shards int
	// DrainTimeout bounds how long Close waits for in-flight requests
	// before hard-closing their connections. Default 5s.
	DrainTimeout time.Duration
	// PreHandle, when non-nil, is asked on the read loop for each
	// request's stall, given its command word (wire.VerbName for a binary
	// PDU) and key (empty for verbs without one); it must not block. A
	// stall runs before the request is handled, in place on the text
	// protocol and on a goroutine of its own on the binary one. Tests use
	// it to hold requests in flight or make a node slow.
	PreHandle func(verb, key string) (stall func())
	// MaxPending bounds how many admitted requests may be outstanding
	// across all connections before the server sheds new arrivals with an
	// overload response instead of queueing them — per-node admission
	// control, so a hot node degrades to bounded latency plus explicit
	// pushback rather than unbounded queueing collapse. PING is exempt
	// (heartbeats must survive overload or the failure detector declares
	// the node dead and makes things worse). 0 disables shedding; the
	// pending-depth gauge still tracks.
	MaxPending int
	// WALDir, when non-empty, makes the server durable: every mutation
	// is appended to a write-ahead log in this directory — and fsynced,
	// through the group committer — before its response is released, and
	// startup replays whatever a previous incarnation logged there
	// (snapshot plus log tail). Empty keeps the original memory-only
	// server.
	WALDir string
	// WALSegmentBytes overrides the log's segment size (wal.Config).
	WALSegmentBytes int64
	// WALSnapshotEvery is how many logged mutations accumulate before
	// the server compacts a snapshot and truncates old segments.
	// Default 10000.
	WALSnapshotEvery int
	// WALScrubInterval, when positive on a durable server, runs a
	// background scrub pass every interval: sealed segments and the
	// snapshot are re-read and their CRCs re-checked, so at-rest
	// corruption is found while healthy replicas can still repair it.
	// Zero disables scrubbing.
	WALScrubInterval time.Duration
	// WALScrubCorrupt, when non-nil, is called once — from the scrub
	// goroutine, the first time a pass finds corruption — with the
	// failure. The cluster wires it to its event tap.
	WALScrubCorrupt func(error)
	// SyncExcludePrefix, when non-empty, keeps keys with this prefix out
	// of the anti-entropy Merkle digest, and SCAN files them in buckets
	// [merkle.Buckets, 2·merkle.Buckets), above every span TREE covers,
	// so per-node state kept under the prefix never makes two replicas
	// look divergent.
	SyncExcludePrefix string
}

// connState tracks one accepted connection so Close can distinguish
// idle connections (safe to cut immediately) from in-flight requests
// (drained until DrainTimeout). inflight is a count, not a flag: a
// pipelined binary connection can have many requests in flight at once.
type connState struct {
	conn     net.Conn
	mu       sync.Mutex
	fw       *frameWriter // binary conns: response writer, flushed before Close cuts the conn
	inflight int
	closing  bool
}

// addInflight adjusts the in-flight count and reports whether the
// connection has been told to close and whether nothing is left in
// flight on it.
func (cs *connState) addInflight(d int) (closing, idle bool) {
	cs.mu.Lock()
	cs.inflight += d
	closing, idle = cs.closing, cs.inflight == 0
	cs.mu.Unlock()
	return closing, idle
}

// Server is the concurrent key-value server.
type Server struct {
	ln    net.Listener
	store *store
	drain time.Duration

	conns    sync.WaitGroup
	closed   atomic.Bool
	mu       sync.Mutex
	active   map[*connState]struct{}
	connSeen atomic.Int64
	reqSeen  atomic.Int64
	errSeen  atomic.Int64
	latency  *metrics.Histogram

	// Admission control: pending counts admitted-but-unanswered requests
	// across all connections; maxPending > 0 sheds past the bound (see
	// admission.go). verbLat has a fixed key set from construction on, so
	// it is read without locks.
	maxPending  int
	pending     atomic.Int64
	pendingPeak atomic.Int64
	shedSeen    atomic.Int64
	verbLat     map[string]*metrics.Histogram

	// Durability (nil wal = memory-only). walSince counts mutations
	// logged since the last snapshot; snapInFlight single-flights the
	// compaction goroutine, which walWG joins on shutdown.
	wal           *wal.Log
	walEvery      int64
	walSince      atomic.Int64
	snapInFlight  atomic.Bool
	walWG         sync.WaitGroup
	recoveredKeys int

	// Background scrub (syncwal.go): scrubStop ends the loop, scrubAlarm
	// latches the one-shot corruption callback, syncSkipped counts log
	// frames too large for a SYNCWAL dump chunk.
	scrubStop   chan struct{}
	scrubOnce   sync.Once
	scrubAlarm  atomic.Bool
	syncSkipped atomic.Int64

	// preHandle supplies each request's stall (ServerConfig.PreHandle).
	preHandle func(verb, key string) (stall func())

	// digest is the anti-entropy Merkle digest, maintained incrementally
	// under the same shard locks that order mutations; syncExclude keys
	// stay out of it. Served by the TREE and SCAN verbs.
	digest      merkle.Tree
	syncExclude string
}

// NewServer starts a server with the default configuration on addr
// ("127.0.0.1:0" picks a free port).
func NewServer(addr string) (*Server, error) {
	return NewServerConfig(addr, ServerConfig{})
}

// NewServerConfig starts a server with an explicit configuration.
func NewServerConfig(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.PreHandle == nil {
		cfg.PreHandle = func(string, string) func() { return nil }
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:          ln,
		store:       newStore(cfg.Shards),
		drain:       cfg.DrainTimeout,
		active:      make(map[*connState]struct{}),
		latency:     metrics.NewHistogram(),
		preHandle:   cfg.PreHandle,
		maxPending:  cfg.MaxPending,
		syncExclude: cfg.SyncExcludePrefix,
		verbLat:     make(map[string]*metrics.Histogram, len(serverVerbs)),
	}
	for _, v := range serverVerbs {
		s.verbLat[v] = metrics.NewHistogram()
	}
	if cfg.WALDir != "" {
		// Recovery runs to completion before the accept loop starts:
		// no live request can observe a half-replayed store.
		if err := s.openWAL(cfg); err != nil {
			ln.Close()
			return nil, err
		}
		if cfg.WALScrubInterval > 0 {
			s.startScrub(cfg.WALScrubInterval, cfg.WALScrubCorrupt)
		}
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Connections: s.connSeen.Load(),
		Requests:    s.reqSeen.Load(),
		Errors:      s.errSeen.Load(),
	}
}

// Latency returns the per-request latency histogram (read-complete to
// response-ready). Every serving path observes it before the response
// goes to the writer, so a client holding its reply always finds the
// request counted here as well as in Stats.
func (s *Server) Latency() *metrics.Histogram { return s.latency }

// Close stops accepting, drains in-flight requests for up to the
// configured DrainTimeout, then hard-closes whatever remains. Idle
// connections are cut immediately.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	err := s.ln.Close()
	s.mu.Lock()
	for cs := range s.active {
		cs.mu.Lock()
		cs.closing = true
		if cs.inflight == 0 {
			if cs.fw != nil {
				// A binary conn with nothing in flight can still hold
				// completed responses in its coalescing writer; flush them
				// before cutting. stop blocks until drained, so it runs off
				// this goroutine — a flush wedged on a dead peer is unstuck
				// by the DrainTimeout hard close below.
				go func(cs *connState) { cs.fw.stop(); cs.conn.Close() }(cs)
			} else {
				cs.conn.Close()
			}
		}
		cs.mu.Unlock()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.conns.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.drain):
		s.mu.Lock()
		for cs := range s.active {
			cs.conn.Close()
		}
		s.mu.Unlock()
		<-done
	}
	if s.wal != nil {
		// After the drain no handler can append; join any in-flight
		// snapshot or scrub pass, then stop the committer. A Restart that
		// reopens the same directory must not race a straggling compaction.
		s.stopScrub()
		s.walWG.Wait()
		if werr := s.wal.Close(); err == nil {
			err = werr
		}
	}
	return err
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.connSeen.Add(1)
		cs := &connState{conn: conn}
		// Register under the same lock Close drains under, and check
		// closed inside it: a connection accepted in the instant before
		// the listener died must either be fully registered before Close
		// starts waiting (its Add happens-before the Wait) or be dropped
		// here — an unsynchronized Add could race a Wait already at zero.
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.active[cs] = struct{}{}
		s.conns.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.conns.Done()
			defer func() {
				s.mu.Lock()
				delete(s.active, cs)
				s.mu.Unlock()
				conn.Close()
			}()
			s.serve(cs)
		}()
	}
}

// serve negotiates the protocol from the connection's first byte and
// hands off to the matching loop: the store's clients speak binary, and
// the negotiation exists so the lab's text clients (and heartbeat
// PINGs) can share the port. Text frames always open with 0x00 (the
// high byte of a u32 length far below 2^24), so wire.Magic is
// unambiguous; see the wire package comment.
func (s *Server) serve(cs *connState) {
	br := bufio.NewReader(cs.conn)
	first, err := br.Peek(1)
	if err != nil {
		return // closed before a single byte: nothing to serve
	}
	if first[0] == wire.Magic {
		br.ReadByte() //nolint:errcheck // the peeked magic byte
		s.serveBinary(cs, br)
		return
	}
	s.serveText(cs, br)
}

// serveText is the lab loop: one request in flight per connection,
// strictly in-order responses. Its only traffic is lab Clients and
// heartbeat PINGs, so it skips admission control — PING is exempt, and
// the lab Client could not interpret a shed anyway.
func (s *Server) serveText(cs *connState, br *bufio.Reader) {
	for {
		req, err := ReadFrame(br)
		if err != nil {
			return // EOF, broken pipe, or cut by Close: client done
		}
		cs.addInflight(1)
		s.reqSeen.Add(1)
		start := time.Now()
		verb, key := textVerbKey(string(req))
		if stall := s.preHandle(verb, key); stall != nil {
			stall()
		}
		resp := s.handle(string(req))
		if strings.HasPrefix(resp, "ERR") {
			s.errSeen.Add(1)
		}
		d := time.Since(start)
		s.latency.Observe(d)
		s.observeVerb(verb, d)
		werr := WriteFrame(cs.conn, []byte(resp))
		closing, _ := cs.addInflight(-1)
		if werr != nil || closing || s.closed.Load() {
			return
		}
	}
}

// textVerbKey extracts a text request's command word, uppercased the
// way handle matches it, and its first argument (the key of the
// single-key verbs).
func textVerbKey(req string) (verb, key string) {
	verb, rest, _ := strings.Cut(req, " ")
	key, _, _ = strings.Cut(rest, " ")
	return strings.ToUpper(verb), key
}

// handle interprets one request. Protocol (space-delimited within one
// frame; values may contain spaces, keys may not):
//
//	PING             -> "PONG"
//	SET key value    -> "OK" (values with CR/LF rejected with ERR; see ErrBadValue)
//	GET key          -> "VALUE <v>" or "NOTFOUND"
//	DEL key          -> "OK" or "NOTFOUND"
//	MDEL k1 k2 ...   -> "DELETED <n>" (n = how many existed; missing keys ignored)
//	COUNT            -> "COUNT <n>"
//	KEYS             -> "KEYS <k1> <k2> ..." (sorted; bare "KEYS" when empty)
//
// These are the CS87 lab's verbs. The cluster's verbs (SETV, TREE,
// SCAN, SYNCWAL, MGET, MPUT) exist only in the binary protocol and are
// unknown commands here.
func (s *Server) handle(req string) string {
	parts := strings.SplitN(req, " ", 3)
	switch strings.ToUpper(parts[0]) {
	case "PING":
		return "PONG"
	case "SET":
		if len(parts) != 3 {
			return "ERR usage: SET key value"
		}
		if validateTextValue(parts[2]) != nil {
			// Mirror the client-side ErrBadValue check: a hand-rolled text
			// client must not smuggle CR/LF into the shared store either.
			return "ERR value must not contain CR or LF (use the binary protocol for opaque bytes)"
		}
		// applyMutation applies and reserves the log position under the
		// shard lock (log order = apply order), then the fsync wait runs
		// here, before the ack leaves. Key validation also guards the
		// log: "SET  v" (empty key) would store a key replay refuses to
		// decode.
		resp := s.walWait(s.applyMutation(&wire.Request{Verb: wire.VerbSet, Key: parts[1], Value: []byte(parts[2])}))
		if resp.Tag == wire.RespErr {
			return "ERR " + resp.Err
		}
		return "OK"
	case "GET":
		if len(parts) != 2 {
			return "ERR usage: GET key"
		}
		v, ok := s.store.get(parts[1])
		if !ok {
			return "NOTFOUND"
		}
		return "VALUE " + v
	case "DEL":
		if len(parts) != 2 {
			return "ERR usage: DEL key"
		}
		// Only a DEL that removed a key is logged: a NOTFOUND delete
		// changes nothing replay must walk through.
		resp := s.walWait(s.applyMutation(&wire.Request{Verb: wire.VerbDel, Key: parts[1]}))
		if resp.Tag == wire.RespErr {
			return "ERR " + resp.Err
		}
		if resp.Tag == wire.RespNotFound {
			return "NOTFOUND"
		}
		return "OK"
	case "MDEL":
		// Bulk delete, one frame for many keys. The lab verb carries no
		// stamps, so every key is deleted unconditionally.
		keys := strings.Fields(req)[1:]
		if len(keys) == 0 {
			return "ERR usage: MDEL key [key ...]"
		}
		pairs := make([]wire.KV, len(keys))
		for i, k := range keys {
			pairs[i].Key = k
		}
		resp := s.walWait(s.applyMutation(&wire.Request{Verb: wire.VerbMDel, Pairs: pairs}))
		if resp.Tag == wire.RespErr {
			return "ERR " + resp.Err
		}
		return fmt.Sprintf("DELETED %d", resp.N)
	case "COUNT":
		return fmt.Sprintf("COUNT %d", s.store.len())
	case "KEYS":
		keys := s.sortedKeys()
		if len(keys) == 0 {
			return "KEYS"
		}
		return "KEYS " + strings.Join(keys, " ")
	default:
		return "ERR unknown command"
	}
}

// sortedKeys snapshots every stored key in sorted order, read-locking
// one stripe at a time (point-in-time per stripe, like COUNT).
func (s *Server) sortedKeys() []string {
	var keys []string
	s.store.each(func(k, _ string) { keys = append(keys, k) })
	sort.Strings(keys)
	return keys
}

// ErrServer wraps protocol-level errors from the server.
var ErrServer = errors.New("sockets: server error")

// ErrBadKey rejects keys that would corrupt the space-delimited command
// syntax (empty keys or keys containing whitespace).
var ErrBadKey = errors.New("sockets: key must be non-empty and contain no whitespace")

// ErrBadValue rejects values the line-oriented text protocol cannot
// carry: CR or LF would let one request masquerade as protocol text in
// logs, multi-line tooling, and any consumer that treats the payload as
// lines — and historically desynchronized line-based readers. The
// binary protocol has no such restriction (values are length-prefixed
// opaque bytes); use a Pool to store arbitrary payloads.
var ErrBadValue = errors.New("sockets: text-protocol value must not contain CR or LF (use the binary protocol for opaque bytes)")

func validateKey(key string) error {
	if key == "" || strings.ContainsAny(key, " \t\n\r") {
		return fmt.Errorf("%w: %q", ErrBadKey, key)
	}
	return nil
}

// validateTextValue applies the text protocol's value restriction, on
// both sides of the wire: the lab Client rejects before writing, and
// the server's SET branch rejects hand-rolled clients that skip the
// client library. The binary protocol carries opaque bytes.
func validateTextValue(value string) error {
	if strings.ContainsAny(value, "\r\n") {
		return fmt.Errorf("%w: %q", ErrBadValue, value)
	}
	return nil
}

// roundTripper issues one text request and returns the raw response —
// the Client's round trip, as the command parsers below consume it.
type roundTripper func(req string) (string, error)

func doPing(rt roundTripper) error {
	resp, err := rt("PING")
	if err != nil {
		return err
	}
	if resp != "PONG" {
		return fmt.Errorf("%w: %s", ErrServer, resp)
	}
	return nil
}

func doSet(rt roundTripper, key, value string) error {
	if err := validateKey(key); err != nil {
		return err
	}
	if err := validateTextValue(value); err != nil {
		return err
	}
	resp, err := rt("SET " + key + " " + value)
	if err != nil {
		return err
	}
	if resp != "OK" {
		return fmt.Errorf("%w: %s", ErrServer, resp)
	}
	return nil
}

func doGet(rt roundTripper, key string) (value string, found bool, err error) {
	if err := validateKey(key); err != nil {
		return "", false, err
	}
	resp, err := rt("GET " + key)
	if err != nil {
		return "", false, err
	}
	switch {
	case resp == "NOTFOUND":
		return "", false, nil
	case strings.HasPrefix(resp, "VALUE "):
		return strings.TrimPrefix(resp, "VALUE "), true, nil
	}
	return "", false, fmt.Errorf("%w: %s", ErrServer, resp)
}

func doDel(rt roundTripper, key string) (bool, error) {
	if err := validateKey(key); err != nil {
		return false, err
	}
	resp, err := rt("DEL " + key)
	if err != nil {
		return false, err
	}
	switch resp {
	case "OK":
		return true, nil
	case "NOTFOUND":
		return false, nil
	}
	return false, fmt.Errorf("%w: %s", ErrServer, resp)
}

// mdelChunkBytes bounds one MDEL request's payload so bulk deletes of
// arbitrarily many keys never hit the MaxFrame limit.
const mdelChunkBytes = 64 << 10

func doMDel(rt roundTripper, keys []string) (int, error) {
	for _, k := range keys {
		if err := validateKey(k); err != nil {
			return 0, err
		}
	}
	deleted := 0
	for len(keys) > 0 {
		// Take the longest prefix of keys that fits one chunk.
		n, bytes := 0, len("MDEL")
		for n < len(keys) && (n == 0 || bytes+1+len(keys[n]) <= mdelChunkBytes) {
			bytes += 1 + len(keys[n])
			n++
		}
		resp, err := rt("MDEL " + strings.Join(keys[:n], " "))
		if err != nil {
			return deleted, err
		}
		var d int
		if _, err := fmt.Sscanf(resp, "DELETED %d", &d); err != nil {
			return deleted, fmt.Errorf("%w: %s", ErrServer, resp)
		}
		deleted += d
		keys = keys[n:]
	}
	return deleted, nil
}

func doCount(rt roundTripper) (int, error) {
	resp, err := rt("COUNT")
	if err != nil {
		return 0, err
	}
	var n int
	if _, err := fmt.Sscanf(resp, "COUNT %d", &n); err != nil {
		return 0, fmt.Errorf("%w: %s", ErrServer, resp)
	}
	return n, nil
}

func doKeys(rt roundTripper) ([]string, error) {
	resp, err := rt("KEYS")
	if err != nil {
		return nil, err
	}
	if resp != "KEYS" && !strings.HasPrefix(resp, "KEYS ") {
		return nil, fmt.Errorf("%w: %s", ErrServer, resp)
	}
	return strings.Fields(resp)[1:], nil
}

// Client is a single connection to the KV server. Like Pool, every
// operation has a context-first core; the ctx-less methods wrap
// context.Background().
type Client struct {
	conn net.Conn
	mu   sync.Mutex // one request/response in flight per client
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	return DialCtx(context.Background(), addr)
}

// DialCtx connects to a server under ctx, so a caller that gives up
// mid-dial gets its wrapped ctx error instead of waiting out the
// transport.
func DialCtx(ctx context.Context, addr string) (*Client, error) {
	conn, err := dialCtx(ctx, addr, 0)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends one request and reads one response.
func (c *Client) roundTrip(req string) (string, error) {
	return c.roundTripCtx(context.Background(), req)
}

// rt adapts the ctx core to the shared command parsers.
func (c *Client) rt(ctx context.Context) roundTripper {
	return func(req string) (string, error) { return c.roundTripCtx(ctx, req) }
}

// roundTripCtx sends one request and reads one response under ctx: the
// connection deadline tracks the ctx deadline, and a cancellation wakes
// a blocked write/read immediately. After an interrupted round trip the
// connection is in an unknown framing state, so a ctx-failed Client is
// only good for Close — the Pool, which discards broken connections, is
// the client to use when requests outlive their callers routinely.
func (c *Client) roundTripCtx(ctx context.Context, req string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", fmt.Errorf("sockets: request aborted before writing: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if dl, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(dl)
		defer c.conn.SetDeadline(time.Time{})
	}
	if done := ctx.Done(); done != nil {
		watch := make(chan struct{})
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			select {
			case <-done:
				c.conn.SetDeadline(aLongTimeAgo)
			case <-watch:
			}
		}()
		// Join the watchdog before returning so a late cancellation
		// cannot rewind the deadline under the next round trip.
		defer func() { close(watch); <-exited }()
	}
	wrap := func(err error) error {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("sockets: request interrupted: %w", cerr)
		}
		// The only deadline on this connection is the ctx's, so an I/O
		// timeout IS the ctx deadline expiring — the read can wake a
		// hair before ctx.Err() flips.
		var nerr net.Error
		if _, hasDL := ctx.Deadline(); hasDL && errors.As(err, &nerr) && nerr.Timeout() {
			return fmt.Errorf("sockets: request stopped by ctx deadline: %w", context.DeadlineExceeded)
		}
		return err
	}
	if err := WriteFrame(c.conn, []byte(req)); err != nil {
		return "", wrap(err)
	}
	resp, err := ReadFrame(c.conn)
	if err != nil {
		return "", wrap(err)
	}
	return string(resp), nil
}

// Ping checks liveness.
func (c *Client) Ping() error { return doPing(c.roundTrip) }

// PingCtx checks liveness under ctx.
func (c *Client) PingCtx(ctx context.Context) error { return doPing(c.rt(ctx)) }

// Set stores key = value. Keys containing whitespace are rejected with
// ErrBadKey before touching the wire.
func (c *Client) Set(key, value string) error { return doSet(c.roundTrip, key, value) }

// SetCtx stores key = value under ctx.
func (c *Client) SetCtx(ctx context.Context, key, value string) error {
	return doSet(c.rt(ctx), key, value)
}

// Get fetches a value; found is false for missing keys.
func (c *Client) Get(key string) (value string, found bool, err error) {
	return doGet(c.roundTrip, key)
}

// GetCtx fetches a value under ctx; found is false for missing keys.
func (c *Client) GetCtx(ctx context.Context, key string) (value string, found bool, err error) {
	return doGet(c.rt(ctx), key)
}

// Del removes a key, reporting whether it existed.
func (c *Client) Del(key string) (bool, error) { return doDel(c.roundTrip, key) }

// DelCtx removes a key under ctx, reporting whether it existed.
func (c *Client) DelCtx(ctx context.Context, key string) (bool, error) {
	return doDel(c.rt(ctx), key)
}

// MDel bulk-deletes keys, returning how many existed. Requests are
// chunked so any number of keys stays under the frame limit; zero keys
// is a no-op.
func (c *Client) MDel(keys ...string) (int, error) { return doMDel(c.roundTrip, keys) }

// MDelCtx bulk-deletes keys under ctx.
func (c *Client) MDelCtx(ctx context.Context, keys ...string) (int, error) {
	return doMDel(c.rt(ctx), keys)
}

// Count returns the number of stored keys.
func (c *Client) Count() (int, error) { return doCount(c.roundTrip) }

// CountCtx returns the number of stored keys under ctx.
func (c *Client) CountCtx(ctx context.Context) (int, error) { return doCount(c.rt(ctx)) }

// Keys returns all stored keys in sorted order.
func (c *Client) Keys() ([]string, error) { return doKeys(c.roundTrip) }

// KeysCtx returns all stored keys in sorted order under ctx.
func (c *Client) KeysCtx(ctx context.Context) ([]string, error) { return doKeys(c.rt(ctx)) }
