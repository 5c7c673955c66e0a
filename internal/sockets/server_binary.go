package sockets

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sockets/wire"
	"repro/internal/version"
	"repro/internal/wal"
)

// dedupeCap bounds the server-wide retry-dedupe table — the hard
// memory backstop when age-based eviction alone cannot keep up with
// the mutation rate. The table grows on use: an empty one is under
// 2 KiB, and a full one — each entry a map slot, an order slot, the
// entry, its done channel and an encoded OK/NOTFOUND/COUNT response —
// about 17 MiB. Reads and SETV never enter it.
const dedupeCap = 1 << 16

// dedupeRetryHorizon is how long a completed mutation's recorded
// response stays replayable before age eviction may drop it. It must
// cover the latest a Pool retry can arrive after the first application:
// with the default config that is (MaxAttempts-1) × (attempt timeout +
// max backoff) ≈ 2 × 2.25s, so 5s covers the defaults with margin.
// Entries evicted older than this cannot break exactly-once — the
// client has exhausted its attempts; entries evicted younger (capacity
// backstop) can, and are counted in earlyEvict.
const dedupeRetryHorizon = 5 * time.Second

// dedupeStripes spreads the table over independently locked stripes so
// concurrent mutations from many pipelined requests do not serialize on
// one mutex (the same reason the store itself is sharded).
const dedupeStripes = 16

// dedupeKey identifies one client's logical request across retries.
type dedupeKey struct {
	client uint64
	id     uint64
}

// dedupeEntry is one recorded (or in-progress) mutation. done closes
// when resp and tick are valid, so a retry that races the original
// attempt waits for the first application instead of applying a second
// one. tick is the original's durability ticket (nil on a memory-only
// server): a retry waits it out before replaying resp, so a recording —
// which is published before its covering fsync — can never leak a
// response earlier than the original would have. doneAt stamps
// completion for age-based eviction.
type dedupeEntry struct {
	done   chan struct{}
	resp   []byte
	tick   *wal.Ticket
	doneAt time.Time
}

// dedupeTable makes retried non-idempotent binary PDUs (SET/DEL/MDEL/
// MPUT) exactly-once on the server: the first arrival of a (client,
// correlation ID) pair applies the op and records the encoded response;
// any later arrival — the Pool retries with the same ID after an
// ambiguous transport failure — replays the recording. (Lab text
// clients carry no correlation IDs and never retry.) Stripes are locked
// independently; a (client, id) pair always hashes to the same stripe,
// so the exactly-once argument is per-stripe and unchanged.
//
// Eviction is age-first: a completed entry older than horizon can no
// longer see a retry (the client exhausted its attempts) and is dropped
// for free. The capacity cap is only a memory backstop; when it forces
// out an entry still inside the horizon, exactly-once degrades to
// at-least-once for a straggling retry of that op — earlyEvict counts
// those so the degradation is observable instead of silent.
type dedupeTable struct {
	horizon    time.Duration
	earlyEvict atomic.Int64
	stripes    [dedupeStripes]dedupeStripe
}

type dedupeStripe struct {
	mu      sync.Mutex
	cap     int
	entries map[dedupeKey]*dedupeEntry
	order   []dedupeKey // completed entries, oldest first; head is the eviction cursor
	head    int
}

func newDedupeTable(capacity int, horizon time.Duration) *dedupeTable {
	per := capacity / dedupeStripes
	if per < 1 {
		per = 1
	}
	t := &dedupeTable{horizon: horizon}
	for i := range t.stripes {
		// Nothing is sized to the cap: the maps and order slices grow with
		// the mutations that actually arrive.
		t.stripes[i] = dedupeStripe{cap: per, entries: make(map[dedupeKey]*dedupeEntry)}
	}
	return t
}

func (t *dedupeTable) stripe(k dedupeKey) *dedupeStripe {
	// Correlation IDs are sequential and client IDs random; fold both in
	// so neither axis alone maps every key to one stripe.
	h := (k.client*0x9e3779b97f4a7c15 ^ k.id*0xbf58476d1ce4e5b9) >> 32
	return &t.stripes[h%dedupeStripes]
}

// evictOldest drops the oldest completed entry. Caller holds d.mu.
func (d *dedupeStripe) evictOldest() {
	delete(d.entries, d.order[d.head])
	d.order[d.head] = dedupeKey{}
	d.head++
	// Compact once the dead prefix dominates, so order doesn't grow
	// without bound under churn.
	if d.head > 64 && d.head > len(d.order)/2 {
		d.order = append(d.order[:0], d.order[d.head:]...)
		d.head = 0
	}
}

// begin claims k. When the op is a duplicate it returns the prior
// entry (wait on entry.done, then read entry.resp); otherwise it
// returns a fresh pending entry the caller must complete with finish.
func (t *dedupeTable) begin(k dedupeKey) (entry *dedupeEntry, duplicate bool) {
	d := t.stripe(k)
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[k]; ok {
		return e, true
	}
	e := &dedupeEntry{done: make(chan struct{})}
	d.entries[k] = e
	return e, false
}

// record publishes a pending entry's response without releasing its
// waiters, drops completed entries that have aged past the retry
// horizon, and applies the capacity backstop (counting the early
// evictions it forces). On a durable server this runs under the shard
// lock(s), after the mutation is applied and before its WAL position is
// reserved: a snapshot capture that will prune the record's segment is
// thereby guaranteed to already see the recording, which is what keeps
// exactly-once intact across a crash that lands between an append's
// fsync and its release (the recording can otherwise miss both the
// snapshot and the pruned log). Idempotent — a second call for the same
// entry is a no-op.
func (t *dedupeTable) record(k dedupeKey, e *dedupeEntry, resp []byte) {
	d := t.stripe(k)
	now := time.Now()
	d.mu.Lock()
	if e.resp == nil {
		e.resp = resp
		e.doneAt = now
		d.order = append(d.order, k)
		for d.head < len(d.order) && now.Sub(d.entries[d.order[d.head]].doneAt) >= t.horizon {
			d.evictOldest()
		}
		for len(d.order)-d.head > d.cap {
			d.evictOldest()
			t.earlyEvict.Add(1)
		}
	}
	d.mu.Unlock()
}

// complete attaches the durability ticket and releases every waiter.
// Must follow record for the same entry; the close orders both writes
// before any waiter's reads.
func (e *dedupeEntry) complete(tick *wal.Ticket) {
	e.tick = tick
	close(e.done)
}

// finish records the response and releases waiters in one step — for
// paths with no durability ticket to thread through.
func (t *dedupeTable) finish(k dedupeKey, e *dedupeEntry, resp []byte) {
	t.record(k, e, resp)
	e.complete(nil)
}

// DedupeHits reports how many retried binary mutations the server
// answered from the dedupe table instead of re-applying.
func (s *Server) DedupeHits() int64 { return s.dedupHit.Load() }

// DedupeEarlyEvictions reports how many recorded mutations the dedupe
// table's capacity backstop evicted while still inside the retry
// horizon. Non-zero means the exactly-once guarantee for retried binary
// mutations has degraded to at-least-once under the current load —
// size dedupeCap up (or shorten client retry windows) if it climbs.
func (s *Server) DedupeEarlyEvictions() int64 { return s.dedupe.earlyEvict.Load() }

// serveBinary is the per-connection demultiplexer: it decodes frames
// off one reader, dispatches each PDU to its own goroutine against the
// sharded store, and writes responses back as they complete —
// out-of-order, matched to requests by correlation ID. One slow GET no
// longer convoys the pipeline behind it.
func (s *Server) serveBinary(cs *connState, br *bufio.Reader) {
	var cid [8]byte
	if _, err := io.ReadFull(br, cid[:]); err != nil {
		return // died during the handshake
	}
	clientID := binary.BigEndian.Uint64(cid[:])

	// Coalesced response writes; a broken write closes the conn, which
	// breaks the read loop below and unwinds the whole connection.
	fw := newFrameWriter(cs.conn, func(error) { cs.conn.Close() })
	// Publish the writer so a graceful Close can flush queued responses
	// before cutting a connection it considers idle.
	cs.mu.Lock()
	cs.fw = fw
	cs.mu.Unlock()
	defer fw.stop() // after wg.Wait: late handler responses still drain
	var wg sync.WaitGroup
	defer wg.Wait()
	var frame []byte // the connection's read buffer, reused frame after frame
	for {
		payload, err := readFrame(br, frame)
		if err != nil {
			return // EOF, broken pipe, or cut by Close: client done
		}
		frame = reuseFrame(payload)
		inline := len(payload) > 0 && s.inlineVerb(payload[0])
		if !inline {
			// The request outlives this iteration on a goroutine of its
			// own, and the next read overwrites frame: decode it from
			// private bytes.
			payload = bytes.Clone(payload)
		}
		req, derr := wire.DecodeRequest(payload)
		s.reqSeen.Add(1)
		if derr != nil {
			// Frame boundaries are still sound (the length prefix held),
			// so a malformed PDU poisons only itself: answer ERR on the
			// ID if one decoded, keep serving.
			s.errSeen.Add(1)
			var id uint64
			if req != nil {
				id = req.ID
			}
			if writeResponse(fw, &wire.Response{Tag: wire.RespErr, ID: id, Err: derr.Error()}) != nil {
				return
			}
			continue
		}
		if req.Verb != wire.VerbPing && !s.admit() {
			// Shed before the dedupe table sees the correlation ID: a shed
			// attempt must leave no pending dedupe entry behind, or the
			// client's retry of the same ID would wait on a recording that
			// will never be finished. O(1) answer, no store work, no
			// goroutine.
			if writeResponse(fw, &wire.Response{Tag: wire.RespOverload, ID: req.ID}) != nil {
				return
			}
			continue
		}
		if inline {
			// The inline path still counts as in flight: a graceful
			// Close must see the request and grant it the same drain
			// grace as the text and goroutine paths instead of cutting
			// the conn under a mutation whose response isn't out yet.
			cs.addInflight(1)
			start := time.Now()
			werr := s.respond(fw, req, s.handleBinary(clientID, req), start)
			if req.Verb != wire.VerbPing {
				s.release()
			}
			closing := cs.addInflight(-1)
			if werr != nil || closing || s.closed.Load() {
				// Unwinding runs fw.stop, which flushes the queued
				// response before the conn is torn down.
				return
			}
			continue
		}
		cs.addInflight(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			if s.preHandle != nil {
				s.preHandle(wire.VerbName(req.Verb), req.Key)
			}
			werr := s.respond(fw, req, s.handleBinary(clientID, req), start)
			if req.Verb != wire.VerbPing {
				s.release()
			}
			closing := cs.addInflight(-1)
			if werr != nil || closing || s.closed.Load() {
				// Mirror the text loop's exit conditions: flush queued
				// responses (ours included), then close the conn, which
				// unblocks the read loop, which returns and joins us. A
				// flush wedged on a dead peer is unstuck by Close's
				// DrainTimeout hard close.
				fw.stop()
				cs.conn.Close()
			}
		}()
	}
}

// inlineVerb reports whether the read loop serves a request with this
// verb itself, straight off the connection's read buffer, instead of on
// a goroutine of its own. PING, GET and COUNT run inline, skipping a
// goroutine spawn per request: they take shard RLocks only and never
// wait on a dedupe entry or an fsync. Every other verb keeps its own
// goroutine, and so does every verb once a PreHandle stall hook is
// installed — those are the cases out-of-order completion exists for.
//
// MaxPending also forces the goroutine path: inline handling is
// self-limiting (one request per connection in service at a time), so a
// bounded pending queue is only meaningful when pipelined ingestion is
// decoupled from service — the handler goroutine set IS the pending
// queue admission control bounds.
func (s *Server) inlineVerb(verb byte) bool {
	if s.preHandle != nil || s.maxPending > 0 {
		return false
	}
	switch verb {
	case wire.VerbPing, wire.VerbGet, wire.VerbCount:
		return true
	}
	return false
}

// respond accounts one handled PDU — error count, latency, per-verb
// latency — and then encodes its response into the connection's writer.
// The accounting comes first, so a client holding its reply always
// finds the request in Latency() as well as in Stats().
func (s *Server) respond(fw *frameWriter, req *wire.Request, resp *wire.Response, start time.Time) error {
	if resp.Tag == wire.RespErr {
		s.errSeen.Add(1)
	}
	d := time.Since(start)
	s.latency.Observe(d)
	s.observeVerb(wire.VerbName(req.Verb), d)
	return writeResponse(fw, resp)
}

// writeResponse encodes resp straight into fw's queue. A response that
// would not fit one frame (SCAN or MGET over too many bytes) is
// replaced by an error on the same ID: the client would refuse the
// oversized frame and tear down its pipe with every request in flight
// on it, then retry into the same failure.
func writeResponse(fw *frameWriter, resp *wire.Response) error {
	return fw.write(func(dst []byte) []byte {
		start := len(dst)
		dst = wire.AppendResponse(dst, resp)
		if n := len(dst) - start; n > MaxFrame {
			dst = wire.AppendResponse(dst[:start], &wire.Response{Tag: wire.RespErr, ID: resp.ID,
				Err: fmt.Sprintf("response of %d bytes exceeds the %d-byte frame limit", n, MaxFrame)})
		}
		return dst
	})
}

// handleBinary interprets one decoded PDU against the sharded store.
// Mutating verbs run through the dedupe table so a retried correlation
// ID is answered from the recording instead of applied twice.
func (s *Server) handleBinary(clientID uint64, r *wire.Request) *wire.Response {
	switch r.Verb {
	case wire.VerbPing, wire.VerbGet, wire.VerbCount, wire.VerbMGet,
		wire.VerbTree, wire.VerbScan:
		return s.applyBinary(r) // reads: idempotent, no dedupe bookkeeping
	case wire.VerbSetV:
		// SETV mutates but skips the dedupe table on purpose: the version
		// comparison makes it naturally idempotent (a retry of an applied
		// SETV finds its own stamp stored, compares Equal, and changes
		// nothing), so exactly-once needs no recording — and its WAL
		// record is only written when the compare said apply.
		return s.applyBinary(r)
	case wire.VerbSyncWAL:
		// SYNCWAL also skips the dedupe table: dumps read, and applies go
		// through the same version compare as SETV, so a retried chunk
		// re-folds to nothing.
		return s.applySyncWAL(r)
	}
	k := dedupeKey{client: clientID, id: r.ID}
	e, dup := s.dedupe.begin(k)
	if dup {
		<-e.done
		s.dedupHit.Add(1)
		// The recording was published before its covering fsync; the
		// retry must ride out the original's durability wait before it
		// may leak the response.
		if err := e.tick.Wait(); err != nil {
			return &wire.Response{Tag: wire.RespErr, ID: r.ID, Err: "durability: " + err.Error()}
		}
		resp, err := wire.DecodeResponse(e.resp)
		if err != nil {
			// Cannot happen: we encoded it. Fall through to a fresh apply
			// rather than wedge the connection.
			return s.applyBinary(r)
		}
		return resp
	}
	// Durable before acked: applyMutation applies the mutation, publishes
	// the dedupe recording, and reserves the WAL position — all under the
	// shard lock(s), so log order equals apply order and a snapshot can
	// never prune a record whose recording it missed. The fsync wait
	// happens off-lock, below. A recording outlives the request (and may
	// go into a WAL snapshot), so it is encoded into bytes of its own,
	// not into the connection's writer.
	resp, tick := s.applyMutation(clientID, r, func(applied *wire.Response) {
		s.dedupe.record(k, e, wire.AppendResponse(nil, applied))
	})
	if resp.Tag == wire.RespErr {
		// Validation failure: nothing was applied or logged, so the
		// under-lock callback never ran — record the error here.
		s.dedupe.record(k, e, wire.AppendResponse(nil, resp))
	}
	e.complete(tick)
	if err := s.walWait(tick); err != nil {
		return &wire.Response{Tag: wire.RespErr, ID: r.ID, Err: "durability: " + err.Error()}
	}
	return resp
}

// applyMutation applies one mutating request and — on a durable server —
// reserves its WAL commit-queue position while every shard lock the
// mutation touched is still held, so two racing mutations to the same
// key can never be applied in one order and logged in the other (crash
// recovery would replay the log and resurrect the stale value). record,
// when non-nil, is invoked with the response inside the same critical
// section, after the apply and before the reservation — see
// dedupeTable.record for why that ordering is load-bearing. The caller
// owns the returned ticket's Wait (nil when memory-only or when
// validation failed and nothing was logged).
//
// Multi-key verbs lock every touched stripe at once, in ascending index
// order (deadlock-free against each other; single-key verbs hold one
// lock and nest nothing), rather than one stripe at a time: a per-key
// locking walk would let another writer's record interleave between
// this record's first and last key, breaking the log-order argument for
// the earlier keys.
func (s *Server) applyMutation(client uint64, r *wire.Request, record func(*wire.Response)) (*wire.Response, *wal.Ticket) {
	errResp := func(msg string) *wire.Response {
		return &wire.Response{Tag: wire.RespErr, ID: r.ID, Err: msg}
	}
	// seal publishes the outcome while the caller's locks are held:
	// dedupe recording first, then the commit-queue reservation.
	seal := func(resp *wire.Response, value string) *wal.Ticket {
		if record != nil {
			record(resp)
		}
		if s.wal == nil {
			return nil
		}
		return s.wal.Begin(requestRecord(client, r, value))
	}
	switch r.Verb {
	case wire.VerbSet:
		if err := validateKey(r.Key); err != nil {
			return errResp(err.Error()), nil
		}
		v := string(r.Value)
		sh := s.shardFor(r.Key)
		sh.lock.Lock()
		old, had := sh.store[r.Key]
		sh.store[r.Key] = v
		s.digestApply(r.Key, old, v, had, true)
		resp := &wire.Response{Tag: wire.RespOK, ID: r.ID}
		tick := seal(resp, v)
		sh.lock.Unlock()
		return resp, tick
	case wire.VerbSetV:
		if err := validateKey(r.Key); err != nil {
			return errResp(err.Error()), nil
		}
		// One copy off the request serves the compare, the store, the
		// digest and the log record.
		v := string(r.Value)
		in, _, err := version.ParseHeader(v)
		if err != nil {
			// An unstamped SETV payload can neither be compared nor later
			// compete against stamped values: reject, apply nothing.
			return errResp("setv: " + err.Error()), nil
		}
		sh := s.shardFor(r.Key)
		sh.lock.Lock()
		cur, had := sh.store[r.Key]
		apply, code := setvOutcome(cur, had, in)
		resp := &wire.Response{Tag: wire.RespCount, ID: r.ID, N: code}
		var tick *wal.Ticket
		if apply {
			sh.store[r.Key] = v
			s.digestApply(r.Key, cur, v, had, true)
			// Logged (as a plain set — replay needs no version logic, the
			// compare already happened) only when something changed: a
			// rejected SETV must not dirty the log.
			tick = seal(resp, v)
		} else if record != nil {
			record(resp)
		}
		sh.lock.Unlock()
		return resp, tick
	case wire.VerbDel:
		if validateKey(r.Key) != nil {
			// No valid SET can have stored this key, so it cannot exist —
			// and logging it would write a record replay refuses to decode
			// (the text protocol can produce such keys; the wire decoder
			// cannot). Nothing changes, so nothing is logged.
			return &wire.Response{Tag: wire.RespNotFound, ID: r.ID}, nil
		}
		sh := s.shardFor(r.Key)
		sh.lock.Lock()
		old, ok := sh.store[r.Key]
		delete(sh.store, r.Key)
		if ok {
			s.digestApply(r.Key, old, "", true, false)
		}
		resp := &wire.Response{Tag: wire.RespOK, ID: r.ID}
		if !ok {
			// NOTFOUND deletes are logged too: replay must walk the same
			// state sequence the live run did, and a retried DEL must
			// replay the same answer.
			resp = &wire.Response{Tag: wire.RespNotFound, ID: r.ID}
		}
		tick := seal(resp, "")
		sh.lock.Unlock()
		return resp, tick
	case wire.VerbMDel:
		for _, k := range r.Keys {
			if k == "" {
				// A zero-length key would poison the log: replay rejects it
				// as corruption. The wire decoder already refuses it.
				return errResp("zero-length key"), nil
			}
		}
		unlock := s.lockShardSet(r.Keys)
		n := uint64(0)
		for _, k := range r.Keys {
			sh := s.shardFor(k)
			if old, ok := sh.store[k]; ok {
				delete(sh.store, k)
				s.digestApply(k, old, "", true, false)
				n++
			}
		}
		resp := &wire.Response{Tag: wire.RespCount, ID: r.ID, N: n}
		tick := seal(resp, "")
		unlock()
		return resp, tick
	case wire.VerbMPut:
		for _, kv := range r.Pairs {
			if err := validateKey(kv.Key); err != nil {
				return errResp(err.Error()), nil
			}
		}
		keys := make([]string, 0, len(r.Pairs))
		for _, kv := range r.Pairs {
			keys = append(keys, kv.Key)
		}
		unlock := s.lockShardSet(keys)
		for _, kv := range r.Pairs {
			st := s.shardFor(kv.Key).store
			v := string(kv.Value)
			old, had := st[kv.Key]
			st[kv.Key] = v
			s.digestApply(kv.Key, old, v, had, true)
		}
		resp := &wire.Response{Tag: wire.RespCount, ID: r.ID, N: uint64(len(r.Pairs))}
		tick := seal(resp, "")
		unlock()
		return resp, tick
	}
	return errResp("not a mutating verb: " + wire.VerbName(r.Verb)), nil
}

// applyBinary is the verb dispatch. Keys obey the same rules as the
// text protocol (the store is shared across protocols and keys surface
// in text KEYS responses); values are opaque bytes. Mutating verbs
// delegate to applyMutation without dedupe bookkeeping — this is the
// WAL replay path (the log is not yet live during recovery, so the
// ticket is nil) and the dedupe decode fallback (which still waits out
// its fsync).
func (s *Server) applyBinary(r *wire.Request) *wire.Response {
	errResp := func(msg string) *wire.Response {
		return &wire.Response{Tag: wire.RespErr, ID: r.ID, Err: msg}
	}
	switch r.Verb {
	case wire.VerbPing:
		return &wire.Response{Tag: wire.RespOK, ID: r.ID}
	case wire.VerbSet, wire.VerbDel, wire.VerbMDel, wire.VerbMPut, wire.VerbSetV:
		resp, tick := s.applyMutation(0, r, nil)
		if err := s.walWait(tick); err != nil {
			return errResp("durability: " + err.Error())
		}
		return resp
	case wire.VerbTree:
		return s.applyTree(r)
	case wire.VerbScan:
		return s.applyScan(r)
	case wire.VerbGet:
		sh := s.shardFor(r.Key)
		sh.lock.RLock()
		v, ok := sh.store[r.Key]
		sh.lock.RUnlock()
		if !ok {
			return &wire.Response{Tag: wire.RespNotFound, ID: r.ID}
		}
		return &wire.Response{Tag: wire.RespValue, ID: r.ID, Value: readOnlyBytes(v)}
	case wire.VerbMGet:
		resp := &wire.Response{
			Tag:    wire.RespMulti,
			ID:     r.ID,
			Found:  make([]bool, 0, len(r.Keys)),
			Values: make([][]byte, 0, len(r.Keys)),
		}
		for _, k := range r.Keys {
			sh := s.shardFor(k)
			sh.lock.RLock()
			v, ok := sh.store[k]
			sh.lock.RUnlock()
			resp.Found = append(resp.Found, ok)
			if ok {
				resp.Values = append(resp.Values, readOnlyBytes(v))
			} else {
				resp.Values = append(resp.Values, nil)
			}
		}
		return resp
	case wire.VerbCount:
		n := uint64(0)
		for i := range s.shards {
			sh := &s.shards[i]
			sh.lock.RLock()
			n += uint64(len(sh.store))
			sh.lock.RUnlock()
		}
		return &wire.Response{Tag: wire.RespCount, ID: r.ID, N: n}
	}
	return errResp("unknown verb " + wire.VerbName(r.Verb))
}
