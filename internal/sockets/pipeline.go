package sockets

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sockets/wire"
)

// Reply is one settled request: the server's response, or the error
// that ended the attempt, under the tag its caller gave it. Decode it
// with Get or SetV, after the verb that was sent.
type Reply struct {
	Tag  int
	resp *wire.Response
	err  error
}

// pipeFuture is a registered in-flight request: gen ties it to the
// connection incarnation it was written on, so a dying connection fails
// exactly the futures that were riding it; ch and tag are where and
// under which tag its outcome settles.
type pipeFuture struct {
	gen uint64
	ch  chan<- Reply
	tag int
}

// settle delivers the future's outcome. ch has room for it by the
// start contract, so the read loop never blocks on a caller.
func (f pipeFuture) settle(resp *wire.Response, err error) {
	f.ch <- Reply{Tag: f.tag, resp: resp, err: err}
}

// pipe is the pipelining round-tripper behind a binary-protocol Pool:
// one shared connection, a writer side serialized by writeMu, and a
// reader goroutine that settles response futures by correlation ID —
// so responses return in whatever order the server finishes them and
// one connection carries any number of in-flight operations.
type pipe struct {
	p *Pool

	mu       sync.Mutex // guards conn, fw, gen, pending
	conn     net.Conn
	fw       *frameWriter // coalesced request writes on conn
	gen      uint64
	pending  map[uint64]pipeFuture
	lastRecv atomic.Int64 // UnixNano of the last frame read; dead-conn heuristic
}

func newPipe(p *Pool) *pipe {
	return &pipe{
		p:       p,
		pending: make(map[uint64]pipeFuture),
	}
}

// ensure returns the live connection (and its generation), dialing and
// handshaking a fresh one if the previous died. The dial respects both
// ctx and the pool's per-attempt timeout.
func (pp *pipe) ensure(ctx context.Context) (net.Conn, *frameWriter, uint64, error) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pp.conn != nil {
		return pp.conn, pp.fw, pp.gen, nil
	}
	timeout, _ := pp.p.attemptTimeout(ctx)
	conn, err := dialCtx(ctx, pp.p.addr, timeout)
	if err != nil {
		return nil, nil, 0, err
	}
	// Handshake: the magic byte.
	conn.SetWriteDeadline(time.Now().Add(timeout))
	if _, err := conn.Write([]byte{wire.Magic}); err != nil {
		conn.Close()
		return nil, nil, 0, err
	}
	conn.SetWriteDeadline(time.Time{})
	pp.conn = conn
	// A write error closes the conn, which wakes readLoop, which retires
	// the incarnation (fail settles the futures and stops the writer).
	pp.fw = newFrameWriter(conn, func(error) { conn.Close() })
	pp.gen++
	pp.lastRecv.Store(time.Now().UnixNano())
	go pp.readLoop(conn, pp.fw, pp.gen)
	return conn, pp.fw, pp.gen, nil
}

// readLoop drains response frames off one connection incarnation and
// settles the matching futures. Any read or decode error is terminal
// for the incarnation: the conn is discarded and every future written
// on it fails (the callers' retry machinery takes over from there).
func (pp *pipe) readLoop(conn net.Conn, fw *frameWriter, gen uint64) {
	br := bufio.NewReader(conn)
	var frame []byte // the connection's read buffer, reused frame after frame
	for {
		payload, err := readFrame(br, frame)
		if err != nil {
			pp.fail(conn, fw, gen, err)
			return
		}
		frame = reuseFrame(payload)
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			pp.fail(conn, fw, gen, fmt.Errorf("sockets: undecodable response: %w", err))
			return
		}
		pp.lastRecv.Store(time.Now().UnixNano())
		pp.mu.Lock()
		f, ok := pp.pending[resp.ID]
		ok = ok && f.gen == gen // else a late response to an abandoned or re-issued ID: drop
		if ok {
			delete(pp.pending, resp.ID)
		}
		pp.mu.Unlock()
		if ok {
			f.settle(ownResponse(resp), nil)
		}
	}
}

// ownResponse moves a decoded response's values off the read loop's
// frame buffer, which the next read overwrites, onto one fresh
// allocation each before the response leaves the loop. These copies are
// the only ones a value gets on the client: GetCtx and MGetCtx hand them
// out as strings without copying again (ownedString). Keys, scan
// entries and error text decode into strings and are private already.
func ownResponse(r *wire.Response) *wire.Response {
	r.Value = bytes.Clone(r.Value)
	for i, v := range r.Values {
		r.Values[i] = bytes.Clone(v)
	}
	return r
}

// fail retires one connection incarnation: closes it, stops its frame
// writer, clears it (if still current), and settles every future riding
// it with err.
func (pp *pipe) fail(conn net.Conn, fw *frameWriter, gen uint64, err error) {
	conn.Close()
	fw.stop()
	pp.mu.Lock()
	if pp.gen == gen && pp.conn == conn {
		pp.conn = nil
	}
	var settled []pipeFuture
	for id, f := range pp.pending {
		if f.gen == gen {
			delete(pp.pending, id)
			settled = append(settled, f)
		}
	}
	pp.mu.Unlock()
	for _, f := range settled {
		f.settle(nil, err)
	}
}

// shutdown closes the live connection; its readLoop then fails the
// in-flight futures with the connection error, and do's closed check
// turns away new requests with ErrPoolClosed.
func (pp *pipe) shutdown() {
	pp.mu.Lock()
	conn := pp.conn
	pp.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// register installs a future for id on generation gen, settling on ch
// under tag. Any stale future under the same ID (an abandoned earlier
// attempt) is dropped — its reply, if it ever comes, no longer has an
// audience.
func (pp *pipe) register(id, gen uint64, ch chan<- Reply, tag int) pipeFuture {
	f := pipeFuture{gen: gen, ch: ch, tag: tag}
	pp.mu.Lock()
	pp.pending[id] = f
	pp.mu.Unlock()
	return f
}

// unregister abandons a future and reports whether it was still
// pending: false means its outcome has settled, or is settling.
func (pp *pipe) unregister(id uint64, f pipeFuture) bool {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pp.pending[id] != f {
		return false
	}
	delete(pp.pending, id)
	return true
}

// begin opens a logical request: it turns it away if the pool is closed
// or ctx is already done, before any dial or write, and otherwise gives
// it the correlation ID every attempt of it reuses.
func (p *Pool) begin(ctx context.Context, req *wire.Request) error {
	if p.closed.Load() {
		return ErrPoolClosed
	}
	if err := ctx.Err(); err != nil {
		p.canceledSeen.Add(1)
		return fmt.Errorf("sockets: request aborted before first attempt: %w", err)
	}
	p.reqSeen.Add(1)
	req.ID = uint64(p.reqSeq.Add(1))
	return nil
}

// do runs one PDU through the pipelined transport under the Pool's
// retry/deadline/cancellation contract. A context that is already done
// fails fast, before any dial or write; cancellation mid-attempt or in
// backoff returns at once with an error wrapping ctx.Err(). The
// correlation ID is assigned once per logical request and reused across
// retries. A retry may reach the server after the first delivery did:
// every mutating verb is idempotent by version, so applying it again
// changes nothing the first delivery did not.
func (p *Pool) do(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if err := p.begin(ctx, req); err != nil {
		return nil, err
	}
	p.attemptSeen.Add(1)
	resp, err := p.pipe.try(ctx, req, 1)
	return p.finish(ctx, req, 1, resp, err)
}

// finish judges the outcome of attempt `attempt` and retries, with
// backoff, while it is a transport error or a shed and MaxAttempts
// allows. A response the server answered (RespErr included) is final.
// Call.Retry enters here with a first attempt that start sent.
func (p *Pool) finish(ctx context.Context, req *wire.Request, attempt int, resp *wire.Response, err error) (*wire.Response, error) {
	shed := false
	for {
		if err == nil {
			if resp.Tag != wire.RespOverload {
				return resp, nil
			}
			// Shed at admission. The pipelined connection stays up — the
			// server answered, it just refused the work — so take the
			// stiffened backoff rung and retry on the same conn.
			p.overloadSeen.Add(1)
			err, shed = ErrOverload, true
		}
		p.errSeen.Add(1)
		if cerr := ctx.Err(); cerr != nil {
			p.canceledSeen.Add(1)
			return nil, fmt.Errorf("sockets: request canceled after %d attempts: %w", attempt, cerr)
		}
		if p.closed.Load() {
			return nil, ErrPoolClosed
		}
		if attempt >= p.cfg.MaxAttempts {
			return nil, fmt.Errorf("sockets: request failed after %d attempts: %w", p.cfg.MaxAttempts, err)
		}
		attempt++
		p.retrySeen.Add(1)
		if berr := p.backoff(ctx, backoffStep(attempt, shed)); berr != nil {
			p.canceledSeen.Add(1)
			return nil, fmt.Errorf("sockets: request canceled in retry backoff after %d attempts: %w", attempt-1, berr)
		}
		p.attemptSeen.Add(1)
		resp, err = p.pipe.try(ctx, req, attempt)
	}
}

// sent is one attempt that start put in flight: what it takes to
// abandon the attempt, or to judge its connection once it timed out.
// The zero sent is an attempt that settled before it was registered.
type sent struct {
	pp   *pipe
	id   uint64
	f    pipeFuture
	conn net.Conn
	fw   *frameWriter
}

// start is the pipe's one send path. It registers a future for req,
// writes the frame, and returns without waiting: the outcome — the
// response, or the error that ended the attempt — settles onto ch as a
// Reply tagged tag, exactly once unless the attempt is abandoned first.
// ch must have room for that Reply; the read loop never blocks on a
// caller. This is the shape of net/rpc's Client.Go: one channel can
// collect many calls. An undelayed request is encoded straight into
// the connection's writer, so it has no buffer of its own; a retry
// encodes it again, with the same correlation ID.
//
// The fault hooks act here. FailConn kills the connection before the
// write, so the attempt fails like a real mid-flight drop. A PreAttempt
// delay defers the write on a timer: it eats the attempt's budget, but
// the caller is free to send elsewhere meanwhile.
func (pp *pipe) start(ctx context.Context, req *wire.Request, attempt, tag int, ch chan<- Reply) sent {
	p := pp.p
	conn, fw, gen, err := pp.ensure(ctx)
	if err != nil {
		ch <- Reply{Tag: tag, err: err}
		return sent{}
	}
	if p.cfg.FailConn != nil && p.cfg.FailConn(int(req.ID), attempt) {
		p.failInjSeen.Add(1)
		conn.Close() // the injected mid-flight connection kill
	}
	s := sent{pp: pp, id: req.ID, f: pp.register(req.ID, gen, ch, tag), conn: conn, fw: fw}
	var delay time.Duration
	if p.cfg.PreAttempt != nil {
		delay = p.cfg.PreAttempt(attempt)
	}
	if delay <= 0 {
		s.write(func(dst []byte) []byte { return wire.AppendRequest(dst, req) })
		return s
	}
	// Like a packet held up on the network, the frame goes out after the
	// delay even if the caller has given up on it by then. It is encoded
	// now, so the timer holds no reference to req, which stays on the
	// caller's stack on the undelayed path.
	frame := wire.AppendRequest(nil, req)
	time.AfterFunc(delay, func() {
		s.write(func(dst []byte) []byte { return append(dst, frame...) })
	})
	return s
}

// write puts the attempt's frame into its connection writer (see
// frameWriter.write for encode). If that writer already died, the whole
// incarnation retires — this attempt's future settles with the error —
// so the retry redials.
func (s sent) write(encode func(dst []byte) []byte) {
	if err := s.fw.write(encode); err != nil {
		s.pp.fail(s.conn, s.fw, s.f.gen, err)
	}
}

// abandon unregisters the attempt's future (ctx cancellation, or a
// quorum reached without it) and reports whether it was still pending.
func (s sent) abandon() bool {
	return s.pp != nil && s.pp.unregister(s.id, s.f)
}

// expire abandons an attempt that got no response within timeout. If
// the connection has been silent for the whole window the peer is
// likely gone without a FIN (the reader can't tell); retire the
// incarnation so the retry redials. If frames are still flowing, the
// server is just slow on this op — leave the shared conn alone rather
// than nuking everyone else's in-flight requests.
func (s sent) expire(timeout time.Duration) {
	if !s.abandon() {
		return
	}
	if time.Since(time.Unix(0, s.pp.lastRecv.Load())) >= timeout {
		s.pp.fail(s.conn, s.fw, s.f.gen, errPipeStalled)
	}
}

// try performs one pipelined attempt and waits for it: start, then the
// response, ctx, or the attempt deadline, whichever comes first.
func (pp *pipe) try(ctx context.Context, req *wire.Request, attempt int) (*wire.Response, error) {
	timeout, ctxBounded := pp.p.attemptTimeout(ctx)
	if timeout <= 0 {
		return nil, context.DeadlineExceeded
	}
	ch := make(chan Reply, 1)
	s := pp.start(ctx, req, attempt, 0, ch)
	t := startTimer(timeout)
	defer recycleTimer(t)
	select {
	case r := <-ch:
		if r.err != nil {
			return nil, wrapCtxTimeout(ctx, ctxBounded, r.err)
		}
		return r.resp, nil
	case <-ctx.Done():
		s.abandon()
		return nil, fmt.Errorf("sockets: request interrupted: %w", ctx.Err())
	case <-t.C:
		s.expire(timeout)
		return nil, attemptTimedOut(timeout, ctxBounded)
	}
}

// attemptTimedOut is the error of an attempt that outlived its budget.
func attemptTimedOut(timeout time.Duration, ctxBounded bool) error {
	if ctxBounded {
		return fmt.Errorf("sockets: attempt stopped by ctx deadline: %w", context.DeadlineExceeded)
	}
	return fmt.Errorf("sockets: no response within %v: %w", timeout, errAttemptTimeout)
}

// attemptTimers recycles try's deadline timers: a fresh one per
// attempt would be the largest allocation of a small round trip.
var attemptTimers sync.Pool

// startTimer returns a timer that fires after d.
func startTimer(d time.Duration) *time.Timer {
	if t, ok := attemptTimers.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// recycleTimer stops t and keeps it for a later attempt, but only if it
// had not fired: then its channel is empty and stays empty under either
// timer-channel semantics. A fired timer may still deliver its tick
// (buffered channels, the module's go 1.22 semantics), which would time
// the next attempt out at once, so it is left to the collector.
func recycleTimer(t *time.Timer) {
	if t.Stop() {
		attemptTimers.Put(t)
	}
}

var (
	errAttemptTimeout = errors.New("sockets: attempt timed out")
	errPipeStalled    = errors.New("sockets: pipelined connection stalled")
)

// wrapCtxTimeout attributes deadlines: when the ctx deadline set the
// attempt budget, an I/O timeout IS the ctx deadline expiring.
func wrapCtxTimeout(ctx context.Context, ctxBounded bool, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("sockets: request interrupted: %w", cerr)
	}
	var nerr net.Error
	if ctxBounded && errors.As(err, &nerr) && nerr.Timeout() {
		return fmt.Errorf("sockets: attempt stopped by ctx deadline: %w", context.DeadlineExceeded)
	}
	return err
}

// respErr converts an unexpected response — RespErr, a shed, or a tag
// the operation does not answer with — into an error.
func respErr(resp *wire.Response) error {
	switch resp.Tag {
	case wire.RespOverload:
		return ErrOverload
	case wire.RespErr:
		return fmt.Errorf("%w: %s", ErrServer, resp.Err)
	}
	return fmt.Errorf("%w: unexpected response tag 0x%02x", ErrServer, resp.Tag)
}

// chunkKeys splits a key list so each batch PDU stays well under the
// frame limit (the same budget as the lab Client's MDEL chunking).
func chunkKeys(keys []string) [][]string {
	var out [][]string
	for len(keys) > 0 {
		n, bytes := 0, 0
		for n < len(keys) && (n == 0 || bytes+len(keys[n])+10 <= mdelChunkBytes) {
			bytes += len(keys[n]) + 10
			n++
		}
		out = append(out, keys[:n])
		keys = keys[n:]
	}
	return out
}

// wirePairs checks an MPUT or MDEL batch's keys and views each pair's
// value (a stamped value, or a stamp) as wire bytes without copying it.
func wirePairs(pairs []KV) ([]wire.KV, error) {
	out := make([]wire.KV, len(pairs))
	for i, kv := range pairs {
		if err := validateKey(kv.Key); err != nil {
			return nil, err
		}
		out[i] = wire.KV{Key: kv.Key, Value: readOnlyBytes(kv.Value)}
	}
	return out, nil
}

// chunkPairs splits an MPUT or MDEL batch by payload bytes, keys and
// values both counted.
func chunkPairs(pairs []wire.KV) [][]wire.KV {
	var out [][]wire.KV
	for len(pairs) > 0 {
		n, bytes := 0, 0
		for n < len(pairs) && (n == 0 || bytes+len(pairs[n].Key)+len(pairs[n].Value)+20 <= mputChunkBytes) {
			bytes += len(pairs[n].Key) + len(pairs[n].Value) + 20
			n++
		}
		out = append(out, pairs[:n])
		pairs = pairs[n:]
	}
	return out
}

// mputChunkBytes bounds one MPUT request's payload; values can be big,
// so the budget is larger than the key-only chunks but still far under
// MaxFrame.
const mputChunkBytes = 256 << 10
