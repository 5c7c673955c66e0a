package sockets

import (
	"bufio"
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/sockets/wire"
	"repro/internal/version"
	"repro/internal/wal"
)

// serveBinary is the per-connection demultiplexer: it decodes frames
// off one reader, serves the brief verbs itself and dispatches the rest
// each to its own goroutine against the sharded store (see inlineVerb),
// and writes responses back as they complete — out-of-order, matched to
// requests by correlation ID. One slow request no longer convoys the
// pipeline behind it.
func (s *Server) serveBinary(cs *connState, br *bufio.Reader) {
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
	// unwind flushes the queued responses, then closes the conn, which
	// breaks the read loop below.
	unwind := func() {
		fw.stop()
		cs.conn.Close()
	}
	var frame []byte // the connection's read buffer, reused frame after frame
	for {
		payload, err := readFrame(br, frame)
		if err != nil {
			return // EOF, broken pipe, or cut by Close: client done
		}
		frame = reuseFrame(payload)
		inline := len(payload) > 0 && inlineVerb(payload[0])
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
			if writeResponse(fw, &wire.Response{Tag: wire.RespErr, ID: id, Err: derr.Error()}, func() {}) != nil {
				return
			}
			continue
		}
		if req.Verb != wire.VerbPing && !s.admit() {
			// O(1) answer, no store work, no goroutine.
			if writeResponse(fw, &wire.Response{Tag: wire.RespOverload, ID: req.ID}, func() {}) != nil {
				return
			}
			continue
		}
		stall := s.preHandle(wire.VerbName(req.Verb), req.Key)
		if inline && stall != nil {
			// Off the loop after all: decode again from private bytes.
			req, _ = wire.DecodeRequest(bytes.Clone(payload))
			inline = false
		}
		// Either path counts as in flight until answered, so a graceful
		// Close grants it the drain grace instead of cutting the conn.
		cs.addInflight(1)
		if inline {
			start := time.Now()
			var resp *wire.Response
			var tick *wal.Ticket
			if req.Verb == wire.VerbSetV {
				// Applied, and on a durable server its log position
				// reserved, before the next frame is read: frames that
				// arrived in one read ride one group commit.
				resp, tick = s.applyMutation(req)
			} else {
				resp = s.handleBinary(req)
			}
			if tick == nil {
				if s.answer(cs, fw, req.Verb, resp, start) {
					return
				}
			} else {
				// The commit loop answers a logged SETV once the batch
				// holding its record is fsynced (or failed). The callback
				// counts in wg and in flight until its response is
				// queued, so fw.stop and a graceful Close both wait for
				// it. resp owns its bytes: nothing the callback touches
				// aliases frame.
				wg.Add(1)
				tick.Then(func(err error) {
					defer wg.Done()
					if s.answer(cs, fw, wire.VerbSetV, s.walOutcome(resp, err), start) {
						// Never unwind on the commit loop: fw.stop waits
						// on the network.
						wg.Add(1)
						go func() {
							defer wg.Done()
							unwind()
						}()
					}
				})
			}
			if s.closed.Load() {
				// Stop reading. Unwinding runs wg.Wait, then fw.stop,
				// which flushes every queued response before the conn
				// is torn down.
				return
			}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			if stall != nil {
				stall()
			}
			if s.answer(cs, fw, req.Verb, s.handleBinary(req), start) {
				// Flush queued responses (ours included), then close the
				// conn, which unblocks the read loop, which returns and
				// joins us. A flush wedged on a dead peer is unstuck by
				// Close's DrainTimeout hard close.
				unwind()
			}
		}()
	}
}

// inlineVerb reports whether the read loop serves a request with this
// verb itself, straight off the connection's read buffer, instead of on
// a goroutine of its own. PING, GET, COUNT and SETV run inline, skipping
// a goroutine spawn per request: each holds at most one shard lock, about
// as briefly as GET does, and SETV copies its value off the frame before
// storing it. On a durable server the read loop applies a SETV and
// reserves its WAL position, then moves on; the commit loop sends the
// response after the fsync, so the read loop never stalls behind a disk.
// Every other verb, and any request the PreHandle hook stalls, gets a
// goroutine: the cases out-of-order completion exists for.
func inlineVerb(verb byte) bool {
	switch verb {
	case wire.VerbPing, wire.VerbGet, wire.VerbCount, wire.VerbSetV:
		return true
	}
	return false
}

// answer sends one admitted request's response (respond frees its slot)
// and then drops it from the connection's in-flight count. It reports
// whether the connection must now unwind: the write failed, or a
// graceful Close is waiting and this was the last request in flight on
// the connection. Unwinding any earlier would stop the writer under
// responses still being answered.
func (s *Server) answer(cs *connState, fw *frameWriter, verb byte, resp *wire.Response, start time.Time) (unwind bool) {
	werr := s.respond(fw, verb, resp, start)
	closing, idle := cs.addInflight(-1)
	return werr != nil || (closing && idle)
}

// respond accounts one admitted PDU — error count, latency, per-verb
// latency — and encodes its response into the connection's writer,
// freeing its admission slot under the writer's lock just before the
// response is queued: a request still waiting on the writer keeps its
// slot, and a client holding its reply finds it free and counted.
func (s *Server) respond(fw *frameWriter, verb byte, resp *wire.Response, start time.Time) error {
	if resp.Tag == wire.RespErr {
		s.errSeen.Add(1)
	}
	d := time.Since(start)
	s.latency.Observe(d)
	s.observeVerb(wire.VerbName(verb), d)
	free := func() {}
	if verb != wire.VerbPing {
		free = s.release
	}
	err := writeResponse(fw, resp, free)
	if err != nil {
		free() // nothing was queued, so the writer never ran it
	}
	return err
}

// writeResponse encodes resp straight into fw's queue; onQueue runs
// under the writer's lock just before, and only if the write succeeds.
// A response that would not fit one frame (SCAN or MGET over too many
// bytes) is replaced by an error on the same ID: the client would
// refuse the oversized frame and tear down its pipe with every request
// in flight on it, then retry into the same failure.
func writeResponse(fw *frameWriter, resp *wire.Response, onQueue func()) error {
	return fw.write(func(dst []byte) []byte {
		onQueue()
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
// Keys obey the same rules as the text protocol (the store is shared
// across protocols and keys surface in text KEYS responses); values are
// opaque bytes. Every mutating verb is idempotent by version (see
// applyMutation), so a retried correlation ID needs no bookkeeping: the
// second delivery finds the first one's stamps and changes nothing.
func (s *Server) handleBinary(r *wire.Request) *wire.Response {
	switch r.Verb {
	case wire.VerbPing:
		return &wire.Response{Tag: wire.RespOK, ID: r.ID}
	case wire.VerbSetV, wire.VerbMPut, wire.VerbMDel:
		// Durable before acked: applyMutation applies the mutation and
		// reserves its WAL position under the shard lock(s), so log order
		// equals apply order. The fsync wait happens off-lock, here.
		return s.walWait(s.applyMutation(r))
	case wire.VerbSyncWAL:
		return s.applySyncWAL(r)
	case wire.VerbTree:
		return s.applyTree(r)
	case wire.VerbScan:
		return s.applyScan(r)
	case wire.VerbGet:
		v, ok := s.store.get(r.Key)
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
			v, ok := s.store.get(k)
			resp.Found = append(resp.Found, ok)
			if ok {
				resp.Values = append(resp.Values, readOnlyBytes(v))
			} else {
				resp.Values = append(resp.Values, nil)
			}
		}
		return resp
	case wire.VerbCount:
		return &wire.Response{Tag: wire.RespCount, ID: r.ID, N: uint64(s.store.len())}
	}
	return &wire.Response{Tag: wire.RespErr, ID: r.ID, Err: "unknown verb " + wire.VerbName(r.Verb)}
}

// applyMutation applies one mutating request and — on a durable server —
// reserves its WAL commit-queue position while every shard lock the
// mutation touched is still held, so two racing mutations to the same
// key can never be applied in one order and logged in the other (crash
// recovery would replay the log and resurrect the stale value). Only
// what changed the store is logged, as plain writes, so replay needs no
// version logic. The caller owns the returned ticket's Wait (nil when
// memory-only or when nothing was logged).
//
// The binary verbs are idempotent by version. SETV and each MPUT pair
// apply only if their stamp wins under setvOutcome. Each MDEL pair
// deletes only a stored copy that is not newer than its stamp (an empty
// stamp deletes unconditionally). Delivering one of them twice, or late,
// never undoes a newer write. SET and DEL are the text protocol's blind
// writes.
//
// Multi-key verbs lock every touched stripe at once (store.lock), rather
// than one stripe at a time: a per-key locking walk would let another
// writer's record interleave between this record's first and last key,
// breaking the log-order argument for the earlier keys.
func (s *Server) applyMutation(r *wire.Request) (*wire.Response, *wal.Ticket) {
	errResp := func(msg string) *wire.Response {
		return &wire.Response{Tag: wire.RespErr, ID: r.ID, Err: msg}
	}
	var tick *wal.Ticket
	switch r.Verb {
	case wire.VerbSet:
		if err := validateKey(r.Key); err != nil {
			return errResp(err.Error()), nil
		}
		v := string(r.Value)
		pos := db.RingPos(r.Key)
		sp, at := s.store.locate(pos)
		sp.lock.Lock()
		old, had := sp.get(at, r.Key)
		sp.set(at, r.Key, v)
		s.digestApply(pos, r.Key, old, v, had, true)
		if s.wal != nil {
			tick = s.wal.Begin(&wal.Record{Kind: wal.KindSet, Key: r.Key, Value: v})
		}
		sp.lock.Unlock()
		return &wire.Response{Tag: wire.RespOK, ID: r.ID}, tick
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
		pos := db.RingPos(r.Key)
		sp, at := s.store.locate(pos)
		sp.lock.Lock()
		cur, had := sp.get(at, r.Key)
		apply, code := setvOutcome(cur, had, in)
		if apply {
			sp.set(at, r.Key, v)
			s.digestApply(pos, r.Key, cur, v, had, true)
			// Logged as a plain set, and only when something changed: a
			// rejected SETV must not dirty the log.
			if s.wal != nil {
				tick = s.wal.Begin(&wal.Record{Kind: wal.KindSet, Key: r.Key, Value: v})
			}
		}
		sp.lock.Unlock()
		return &wire.Response{Tag: wire.RespCount, ID: r.ID, N: code}, tick
	case wire.VerbDel:
		if validateKey(r.Key) != nil {
			// No valid SET can have stored this key, so it cannot exist —
			// and logging it would write a record replay refuses to decode
			// (the text protocol can produce such keys). Nothing changes,
			// so nothing is logged.
			return &wire.Response{Tag: wire.RespNotFound, ID: r.ID}, nil
		}
		pos := db.RingPos(r.Key)
		sp, at := s.store.locate(pos)
		sp.lock.Lock()
		old, ok := sp.del(at, r.Key)
		resp := &wire.Response{Tag: wire.RespNotFound, ID: r.ID}
		if ok {
			s.digestApply(pos, r.Key, old, "", true, false)
			resp.Tag = wire.RespOK
			if s.wal != nil {
				tick = s.wal.Begin(&wal.Record{Kind: wal.KindDel, Key: r.Key})
			}
		}
		sp.lock.Unlock()
		return resp, tick
	case wire.VerbMDel:
		pos := make([]uint32, len(r.Pairs))
		stamps := make([]version.Header, len(r.Pairs))
		for i, kv := range r.Pairs {
			if kv.Key == "" {
				// A zero-length key would poison the log: replay rejects it
				// as corruption. The wire decoder already refuses it.
				return errResp("zero-length key"), nil
			}
			pos[i] = db.RingPos(kv.Key)
			if len(kv.Value) == 0 {
				continue // no stamp: delete whatever is stored
			}
			h, payload, err := version.ParseHeader(string(kv.Value))
			if err == nil && payload != "" {
				err = fmt.Errorf("stamp of %q carries a %d-byte payload", kv.Key, len(payload))
			}
			if err != nil {
				return errResp("mdel: " + err.Error()), nil
			}
			stamps[i] = h
		}
		unlock := s.store.lock(pos)
		var deleted []string
		for i, kv := range r.Pairs {
			sp, at := s.store.locate(pos[i])
			cur, ok := sp.get(at, kv.Key)
			if !ok {
				continue
			}
			if len(kv.Value) > 0 {
				// A stored copy newer than the stamp is a write the caller
				// never read: keep it. An unstamped copy is never newer.
				if h, _, err := version.ParseHeader(cur); err == nil && h.Newer(stamps[i]) {
					continue
				}
			}
			sp.del(at, kv.Key)
			s.digestApply(pos[i], kv.Key, cur, "", true, false)
			deleted = append(deleted, kv.Key)
		}
		if s.wal != nil && len(deleted) > 0 {
			tick = s.wal.Begin(&wal.Record{Kind: wal.KindMDel, Keys: deleted})
		}
		unlock()
		return &wire.Response{Tag: wire.RespCount, ID: r.ID, N: uint64(len(deleted))}, tick
	case wire.VerbMPut:
		keys := make([]string, len(r.Pairs))
		pos := make([]uint32, len(r.Pairs))
		vals := make([]string, len(r.Pairs))
		stamps := make([]version.Header, len(r.Pairs))
		for i, kv := range r.Pairs {
			if err := validateKey(kv.Key); err != nil {
				return errResp(err.Error()), nil
			}
			v := string(kv.Value)
			h, _, err := version.ParseHeader(v)
			if err != nil {
				// As for SETV: reject an unstamped pair, and reject it
				// before any pair of the batch is applied.
				return errResp(fmt.Sprintf("mput: %q: %v", kv.Key, err)), nil
			}
			keys[i], pos[i], vals[i], stamps[i] = kv.Key, db.RingPos(kv.Key), v, h
		}
		unlock := s.store.lock(pos)
		var applied []wal.KV
		for i, k := range keys {
			sp, at := s.store.locate(pos[i])
			cur, had := sp.get(at, k)
			if apply, _ := setvOutcome(cur, had, stamps[i]); !apply {
				continue
			}
			sp.set(at, k, vals[i])
			s.digestApply(pos[i], k, cur, vals[i], had, true)
			applied = append(applied, wal.KV{Key: k, Value: vals[i]})
		}
		if s.wal != nil && len(applied) > 0 {
			tick = s.wal.Begin(&wal.Record{Kind: wal.KindMPut, Pairs: applied})
		}
		unlock()
		return &wire.Response{Tag: wire.RespCount, ID: r.ID, N: uint64(len(applied))}, tick
	}
	return errResp("not a mutating verb: " + wire.VerbName(r.Verb)), nil
}
