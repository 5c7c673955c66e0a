package sockets

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/sockets/wire"
)

// KV is one key/value pair of an MPut batch.
type KV struct {
	Key, Value string
}

// Proto once selected a Pool's wire protocol. The Pool now speaks only
// the pipelined binary protocol (the line-oriented text protocol lives
// on in the lab Client), so Proto, ProtoBinary, PoolConfig.Proto,
// PoolConfig.Size and cluster.Config.Proto survive only so existing
// callers that still set them keep compiling; no code reads them.
//
// Deprecated: the Pool is binary-only; leave the field unset.
type Proto int

// ProtoBinary is the only protocol a Pool speaks.
//
// Deprecated: see Proto.
const ProtoBinary Proto = 1

// PoolConfig parameterizes a Pool.
type PoolConfig struct {
	// Deprecated: see Proto. Ignored.
	Proto Proto
	// Deprecated: see Proto. Ignored — every request rides one shared
	// pipelined connection, so there is no pool to size.
	Size int
	// MaxAttempts bounds tries per request, dialing included (default 3).
	MaxAttempts int
	// Timeout is the per-attempt deadline covering dial, write, and
	// read (default 2s). A context deadline that expires sooner tightens
	// each attempt further: the effective deadline is
	// min(ctx deadline, now + Timeout).
	Timeout time.Duration
	// BackoffBase is the sleep before the first retry; each further
	// retry doubles it up to BackoffMax, with jitter in [d/2, d]
	// (defaults 2ms and 250ms). The wait is cancelable: a done context
	// aborts it immediately.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed makes the jitter deterministic for tests (default 1).
	Seed uint64
	// FailConn, when non-nil, reports whether the shared connection
	// should be killed before attempt `attempt` of request `req`
	// (both 1-based) — the fault-injection hook mirroring
	// mapreduce.Config.FailTask. Killed attempts fail with a transport
	// error and take the retry path.
	FailConn func(req, attempt int) bool
	// PreAttempt, when non-nil, is asked before each wire attempt, with
	// the 1-based attempt number, for a delay to hold that attempt's
	// write back by — the client-side counterpart of
	// ServerConfig.PreHandle. Chaos harnesses use it to inject latency
	// spikes on the request path. The delay runs on a timer and counts
	// against the attempt's deadline budget, so a spike longer than the
	// budget surfaces as a timeout, exactly like real network delay,
	// while the caller stays free to send to other servers meanwhile.
	PreAttempt func(attempt int) time.Duration
}

// ErrPoolClosed is returned for requests issued after Close.
var ErrPoolClosed = errors.New("sockets: pool closed")

// Pool is the production-shaped client the lab's single-connection
// Client grows into: one pipelined binary-protocol connection that
// multiplexes any number of in-flight requests, with per-request
// deadlines and bounded retry with exponential backoff plus jitter on
// dial and transport errors. Every mutation it sends is idempotent by
// version, so a retry after an ambiguous failure is safe. Safe for
// concurrent use.
//
// Every operation has a context-first core (GetCtx, SetVCtx, ...): the
// context bounds the whole request — dial, write, read, and retry
// backoff — and a canceled or expired context surfaces as an error
// wrapping context.Canceled or context.DeadlineExceeded, distinct from
// ErrPoolClosed and from peer/transport failures. The ctx-less methods
// are context.Background() wrappers kept for call sites that have no
// lifetime to attach.
type Pool struct {
	addr string
	cfg  PoolConfig
	pipe *pipe // the shared pipelined transport

	closed       atomic.Bool
	reqSeen      atomic.Int64
	errSeen      atomic.Int64
	retrySeen    atomic.Int64
	attemptSeen  atomic.Int64
	failInjSeen  atomic.Int64
	canceledSeen atomic.Int64
	overloadSeen atomic.Int64
	reqSeq       atomic.Int64

	rngMu sync.Mutex
	rng   uint64
}

// NewPool connects a pool to a server, establishing the shared
// connection eagerly to fail fast on a bad address.
func NewPool(addr string, cfg PoolConfig) (*Pool, error) {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = defaultAttemptTimeout
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 2 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 250 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	p := &Pool{addr: addr, cfg: cfg, rng: cfg.Seed}
	p.pipe = newPipe(p)
	if _, _, _, err := p.pipe.ensure(context.Background()); err != nil {
		return nil, err
	}
	return p, nil
}

// Stats returns a snapshot of the request/error/retry counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Requests: p.reqSeen.Load(),
		Errors:   p.errSeen.Load(),
		Retries:  p.retrySeen.Load(),
	}
}

// Counters exports the pool's client-side counters as a
// metrics.CounterSet so benchmark drivers such as clusterbench can
// print them next to latency tables: requests issued, wire attempts
// (first tries + retries), retries, failed attempts, FailConn fault
// injections, and requests abandoned because the caller's context was
// canceled or its deadline expired.
func (p *Pool) Counters() *metrics.CounterSet {
	cs := &metrics.CounterSet{}
	cs.Add("pool.requests", float64(p.reqSeen.Load()))
	cs.Add("pool.attempts", float64(p.attemptSeen.Load()))
	cs.Add("pool.retries", float64(p.retrySeen.Load()))
	cs.Add("pool.failed-attempts", float64(p.errSeen.Load()))
	cs.Add("pool.failconn-injections", float64(p.failInjSeen.Load()))
	cs.Add("pool.canceled", float64(p.canceledSeen.Load()))
	cs.Add("pool.overloads", float64(p.overloadSeen.Load()))
	return cs
}

// InFlight reports how many attempts wait on a response: futures
// registered and neither settled nor abandoned. Once every caller has
// its reply or has given up, it is zero; tests use it to show that an
// abandoned attempt left nothing behind.
func (p *Pool) InFlight() int {
	p.pipe.mu.Lock()
	defer p.pipe.mu.Unlock()
	return len(p.pipe.pending)
}

// Overloads reports how many attempts the server shed with an overload
// response (each was retried through the backoff ladder like a
// transport error).
func (p *Pool) Overloads() int64 { return p.overloadSeen.Load() }

// Close releases the shared connection. In-flight requests fail, and
// requests issued afterwards get ErrPoolClosed.
func (p *Pool) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	p.pipe.shutdown()
	return nil
}

// defaultAttemptTimeout backs a zero cfg.Timeout. NewPool normalizes
// the config, but attemptTimeout clamps again on its own: a Pool whose
// Timeout reached zero any other way (direct construction in tests,
// a future config path that skips normalization) must never turn a
// missing ctx deadline into an unbounded attempt — that would evade
// the cancellation guarantees the whole stack is built on.
const defaultAttemptTimeout = 2 * time.Second

// attemptTimeout derives one attempt's deadline budget:
// min(cfg.Timeout, time left until the ctx deadline), with cfg.Timeout
// clamped to defaultAttemptTimeout when unset. ctxBounded reports that
// the ctx deadline (not the config) set the budget, so an I/O timeout
// can be attributed to the context.
func (p *Pool) attemptTimeout(ctx context.Context) (d time.Duration, ctxBounded bool) {
	d = p.cfg.Timeout
	if d <= 0 {
		d = defaultAttemptTimeout
	}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < d {
			d, ctxBounded = rem, true
		}
	}
	return d, ctxBounded
}

// backoffStep maps an attempt number to its rung on the backoff
// ladder. A shed previous attempt jumps three rungs (8× the base wait):
// a saturated node needs the aggregate retry pressure to drop, and the
// quorum paths cancel laggard retries anyway once enough replicas
// answer, so the longer wait costs a successful op nothing.
func backoffStep(attempt int, shed bool) int {
	if shed {
		return attempt + 3
	}
	return attempt
}

// backoff waits out the exponential, jittered delay before a retry
// (attempt >= 2), returning early with ctx.Err() when the caller gives
// up — a canceled request must not sit out the backoff ladder.
func (p *Pool) backoff(ctx context.Context, attempt int) error {
	d := p.cfg.BackoffBase << (attempt - 2)
	if d > p.cfg.BackoffMax || d <= 0 {
		d = p.cfg.BackoffMax
	}
	p.rngMu.Lock()
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	r := p.rng
	p.rngMu.Unlock()
	half := d / 2
	t := time.NewTimer(half + time.Duration(r%uint64(half+1)))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Ping checks liveness.
func (p *Pool) Ping() error { return p.PingCtx(context.Background()) }

// PingCtx checks liveness under ctx.
func (p *Pool) PingCtx(ctx context.Context) error {
	resp, err := p.do(ctx, &wire.Request{Verb: wire.VerbPing})
	if err != nil {
		return err
	}
	if resp.Tag != wire.RespOK {
		return respErr(resp)
	}
	return nil
}

// Get fetches a value; found is false for missing keys.
func (p *Pool) Get(key string) (value string, found bool, err error) {
	return p.GetCtx(context.Background(), key)
}

// GetCtx fetches a value under ctx; found is false for missing keys.
func (p *Pool) GetCtx(ctx context.Context, key string) (value string, found bool, err error) {
	if err := validateKey(key); err != nil {
		return "", false, err
	}
	resp, err := p.do(ctx, &wire.Request{Verb: wire.VerbGet, Key: key})
	return Reply{resp: resp, err: err}.Get()
}

// Get decodes a GET's Reply: the value, or found false for a missing
// key, or the error that ended the request.
func (r Reply) Get() (value string, found bool, err error) {
	if r.err != nil {
		return "", false, r.err
	}
	switch r.resp.Tag {
	case wire.RespValue:
		return ownedString(r.resp.Value), true, nil
	case wire.RespNotFound:
		return "", false, nil
	}
	return "", false, respErr(r.resp)
}

// SetV decodes a SETV's Reply: the SetV* outcome code, or the error
// that ended the request.
func (r Reply) SetV() (uint64, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.resp.Tag != wire.RespCount {
		return 0, respErr(r.resp)
	}
	return r.resp.N, nil
}

// Call is a GET or SETV whose first attempt GoGet or GoSetV sent
// without waiting for it. Its Reply settles on the caller's channel.
// The caller takes that Reply, or gives up on the attempt (Abandon,
// Expire); a failed or expired attempt continues with Retry. The zero
// Call is a request that never reached the wire.
type Call struct {
	p    *Pool
	req  wire.Request // for Retry, which sends it again under its ID
	sent sent
}

// GoGet sends the first attempt of a GET of key and returns at once.
// The Reply settles on replies under tag; decode it with Reply.Get.
// replies must have room for it. One channel can collect the calls of
// many pools, which is how a quorum read waits on every replica without
// a goroutine per replica.
func (p *Pool) GoGet(ctx context.Context, key string, tag int, replies chan<- Reply) Call {
	return p.goCall(ctx, wire.Request{Verb: wire.VerbGet, Key: key}, tag, replies)
}

// GoSetV sends the first attempt of SETV key = value (see SetVCtx) and
// returns at once, like GoGet; decode its Reply with Reply.SetV.
func (p *Pool) GoSetV(ctx context.Context, key, value string, tag int, replies chan<- Reply) Call {
	return p.goCall(ctx, wire.Request{Verb: wire.VerbSetV, Key: key, Value: readOnlyBytes(value)}, tag, replies)
}

func (p *Pool) goCall(ctx context.Context, req wire.Request, tag int, replies chan<- Reply) Call {
	err := validateKey(req.Key)
	if err == nil {
		err = p.begin(ctx, &req)
	}
	if err != nil {
		replies <- Reply{Tag: tag, err: err}
		return Call{}
	}
	p.attemptSeen.Add(1)
	s := p.pipe.start(ctx, &req, 1, tag, replies)
	return Call{p: p, req: req, sent: s}
}

// Abandon gives up on the call's first attempt: a reply that still
// comes is dropped. It counts as a canceled attempt, as a request whose
// context was canceled mid-attempt does.
func (c Call) Abandon() {
	if c.sent.abandon() {
		c.p.errSeen.Add(1)
		c.p.canceledSeen.Add(1)
	}
}

// Expire gives up on a first attempt that got no reply within timeout
// and returns the Reply to continue from with Retry. Like a timed-out
// synchronous attempt, it retires the connection if the connection has
// been silent for the whole window.
func (c Call) Expire(timeout time.Duration) Reply {
	c.sent.expire(timeout)
	return Reply{Tag: c.sent.f.tag, err: attemptTimedOut(timeout, false)}
}

// Retry continues the call after its first attempt, whose Reply is
// first: a transport error, a shed, or Expire's timeout runs attempts 2
// onward of the same request — same correlation ID — under the Pool's
// backoff and MaxAttempts, so the budget of wire attempts per request
// holds. Any other Reply is the server's answer and comes back as is.
// Retry blocks; callers that fan out run it on a goroutine of its own.
func (c Call) Retry(ctx context.Context, first Reply) Reply {
	if c.p == nil {
		return first // never sent: first already holds the final error
	}
	resp, err := c.p.finish(ctx, &c.req, 1, first.resp, first.err)
	return Reply{Tag: first.Tag, resp: resp, err: err}
}

// MDel bulk-deletes keys by stamp. See MDelCtx.
func (p *Pool) MDel(dels []KV) (int, error) { return p.MDelCtx(context.Background(), dels) }

// MDelCtx bulk-deletes keys under ctx, one MDEL PDU per chunk, and
// returns how many it deleted. Each KV names a key and, as its Value,
// the stamp the caller read for it: the encoded version header, without
// the payload. The server deletes a key only if its stored copy is not
// newer than that stamp, so a retried or late MDEL never removes a
// write the caller did not see. An empty stamp deletes whatever is
// stored. A cancellation between chunks returns the deletions applied
// so far alongside the wrapped ctx error.
func (p *Pool) MDelCtx(ctx context.Context, dels []KV) (int, error) {
	wkv, err := wirePairs(dels)
	if err != nil {
		return 0, err
	}
	deleted := 0
	for _, chunk := range chunkPairs(wkv) {
		resp, err := p.do(ctx, &wire.Request{Verb: wire.VerbMDel, Pairs: chunk})
		if err != nil {
			return deleted, err
		}
		if resp.Tag != wire.RespCount {
			return deleted, respErr(resp)
		}
		deleted += int(resp.N)
	}
	return deleted, nil
}

// MGet fetches many keys at once. See MGetCtx.
func (p *Pool) MGet(keys ...string) ([]string, []bool, error) {
	return p.MGetCtx(context.Background(), keys...)
}

// MGetCtx fetches many keys, returning values and found flags parallel
// to keys. The whole batch rides one MGET PDU per chunk — one syscall
// amortized over the batch, the fan-in path cluster anti-entropy uses.
func (p *Pool) MGetCtx(ctx context.Context, keys ...string) ([]string, []bool, error) {
	for _, k := range keys {
		if err := validateKey(k); err != nil {
			return nil, nil, err
		}
	}
	values := make([]string, 0, len(keys))
	found := make([]bool, 0, len(keys))
	for _, chunk := range chunkKeys(keys) {
		resp, err := p.do(ctx, &wire.Request{Verb: wire.VerbMGet, Keys: chunk})
		if err != nil {
			return nil, nil, err
		}
		if resp.Tag != wire.RespMulti || len(resp.Values) != len(chunk) {
			return nil, nil, respErr(resp)
		}
		for i := range chunk {
			values = append(values, ownedString(resp.Values[i]))
			found = append(found, resp.Found[i])
		}
	}
	return values, found, nil
}

// MPut stores many pairs at once. See MPutCtx.
func (p *Pool) MPut(pairs []KV) error { return p.MPutCtx(context.Background(), pairs) }

// MPutCtx stores many version-stamped pairs, one MPUT PDU per chunk.
// The server applies each pair only if its stamp wins against what it
// stores, the SETV rule, so a retried or late MPUT never regresses a
// key. A pair without a stamp fails its whole chunk before any of it
// is applied.
func (p *Pool) MPutCtx(ctx context.Context, pairs []KV) error {
	wkv, err := wirePairs(pairs)
	if err != nil {
		return err
	}
	for _, chunk := range chunkPairs(wkv) {
		resp, err := p.do(ctx, &wire.Request{Verb: wire.VerbMPut, Pairs: chunk})
		if err != nil {
			return err
		}
		if resp.Tag != wire.RespCount {
			return respErr(resp)
		}
	}
	return nil
}

// SetVCtx stores key = value only if value's embedded version stamp
// wins the total order against whatever the node already stores,
// returning the SetV* outcome code. This is the write the cluster uses
// everywhere it copies data to a replica: a delayed or retried SETV can
// never regress a replica to an older version.
func (p *Pool) SetVCtx(ctx context.Context, key, value string) (uint64, error) {
	if err := validateKey(key); err != nil {
		return 0, err
	}
	resp, err := p.do(ctx, &wire.Request{Verb: wire.VerbSetV, Key: key, Value: readOnlyBytes(value)})
	return Reply{resp: resp, err: err}.SetV()
}

// TreeCtx fetches the node's Merkle range hash for each span — the
// descent step of an anti-entropy diff walk.
func (p *Pool) TreeCtx(ctx context.Context, spans []wire.Span) ([]uint64, error) {
	resp, err := p.do(ctx, &wire.Request{Verb: wire.VerbTree, Spans: spans})
	if err != nil {
		return nil, err
	}
	if resp.Tag != wire.RespHashes || len(resp.Hashes) != len(spans) {
		return nil, respErr(resp)
	}
	return resp.Hashes, nil
}

// ScanCtx lists the node's (key, entry hash) pairs for the given Merkle
// bucket spans — the leaf step of an anti-entropy diff walk, and the
// cluster's one way to find the keys a node holds. Buckets at and above
// merkle.Buckets hold the keys the server keeps out of its digest (see
// ServerConfig.SyncExcludePrefix). Values are not transferred; the
// caller compares hashes and fetches only the keys it needs.
func (p *Pool) ScanCtx(ctx context.Context, spans []wire.Span) ([]wire.ScanEntry, error) {
	resp, err := p.do(ctx, &wire.Request{Verb: wire.VerbScan, Spans: spans})
	if err != nil {
		return nil, err
	}
	if resp.Tag != wire.RespScan {
		return nil, respErr(resp)
	}
	return resp.Scan, nil
}

// Count returns the number of stored keys.
func (p *Pool) Count() (int, error) { return p.CountCtx(context.Background()) }

// CountCtx returns the number of stored keys under ctx.
func (p *Pool) CountCtx(ctx context.Context) (int, error) {
	resp, err := p.do(ctx, &wire.Request{Verb: wire.VerbCount})
	if err != nil {
		return 0, err
	}
	if resp.Tag != wire.RespCount {
		return 0, respErr(resp)
	}
	return int(resp.N), nil
}
