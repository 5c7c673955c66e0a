package sockets

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/sockets/wire"
	"repro/internal/wal"
)

// defaultSnapshotEvery is how many logged mutations accumulate before
// the server compacts a snapshot when WALSnapshotEvery is unset.
const defaultSnapshotEvery = 10000

// openWAL wires the write-ahead log into a starting server: recovery
// first (snapshot pairs straight into the shards, dedupe recordings
// preloaded, then the log tail replayed through the same applyBinary
// every live mutation uses), then the log is live and every mutating
// request is appended — and fsynced, via the group committer — before
// its response leaves the server. Runs before the accept loop starts,
// so recovery never races live traffic.
func (s *Server) openWAL(cfg ServerConfig) error {
	l, err := wal.Open(wal.Config{
		Dir:           cfg.WALDir,
		SegmentBytes:  cfg.WALSegmentBytes,
		ReplayWorkers: runtime.GOMAXPROCS(0),
		OnSnapshot: func(snap *wal.Snapshot) error {
			for _, kv := range snap.Pairs {
				sh := s.shardFor(kv.Key)
				sh.store[kv.Key] = kv.Value
				// Snapshot pairs bypass applyMutation, so fold them into
				// the anti-entropy digest here; the log tail replays
				// through the live path and tracks itself.
				s.digestApply(kv.Key, "", kv.Value, false, true)
			}
			for _, e := range snap.Dedupe {
				s.dedupe.preload(dedupeKey{client: e.Client, id: e.ID}, e.Resp)
			}
			return nil
		},
		OnRecord: func(rec *wal.Record) error {
			req, err := recordRequest(rec)
			if err != nil {
				return err
			}
			// Replay through the live apply path: the store ends in the
			// exact state the pre-crash sequence produced, and the
			// recomputed response is byte-identical to the one acked
			// (same state sequence, deterministic verbs) — so preloading
			// it keeps retried pre-crash mutations exactly-once.
			resp := s.applyBinary(req)
			if rec.Client != 0 {
				s.dedupe.preload(dedupeKey{client: rec.Client, id: rec.ID},
					wire.AppendResponse(nil, resp))
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	s.wal = l
	s.walEvery = int64(cfg.WALSnapshotEvery)
	if s.walEvery <= 0 {
		s.walEvery = defaultSnapshotEvery
	}
	for i := range s.shards {
		s.recoveredKeys += len(s.shards[i].store)
	}
	return nil
}

// RecoveredKeys reports how many keys WAL recovery restored at startup
// (0 for a cold start or a memory-only server).
func (s *Server) RecoveredKeys() int { return s.recoveredKeys }

// WALStats exposes the group committer's append and fsync counters
// (both zero for a memory-only server).
func (s *Server) WALStats() (appends, syncs int64) {
	if s.wal == nil {
		return 0, 0
	}
	return s.wal.Appends(), s.wal.Syncs()
}

// walWait rides out one reserved append's covering fsync before the
// caller releases its response, then bumps the snapshot trigger. The
// reservation itself (wal.Begin) happens inside applyMutation, under
// the shard lock(s) that ordered the mutation — log order equals apply
// order, which is what makes replay and the snapshot protocol sound
// (state captured after a rotation covers every record enqueued before
// it; see maybeSnapshot). A nil ticket (memory-only server, or nothing
// logged) is a no-op.
func (s *Server) walWait(t *wal.Ticket) error {
	if t == nil {
		return nil
	}
	if err := t.Wait(); err != nil {
		return err
	}
	if s.walSince.Add(1) >= s.walEvery {
		s.maybeSnapshot()
	}
	return nil
}

// maybeSnapshot compacts the log when enough mutations have accumulated
// since the last snapshot. Single-flight: one goroutine rotates,
// captures, and persists while appends continue; a failure just leaves
// compaction to the next trigger.
func (s *Server) maybeSnapshot() {
	if !s.snapInFlight.CompareAndSwap(false, true) {
		return
	}
	s.walSince.Store(0)
	s.walWG.Add(1)
	go func() {
		defer s.walWG.Done()
		defer s.snapInFlight.Store(false)
		// Rotation orders the capture: every record enqueued before this
		// point lands in a sealed pre-tail segment, and — because every
		// mutation is applied to the store, its dedupe recording
		// published, and its record enqueued all under the same shard
		// lock(s) — the capture below sees the effects AND the dedupe
		// recording of every such record. Records that race in after the
		// rotation land at or past tail and replay over the snapshot,
		// which is idempotent (same values, log order).
		tail, err := s.wal.Rotate()
		if err != nil {
			return // closed, crashed, or a latched I/O error: not our problem to report
		}
		snap := &wal.Snapshot{Dedupe: s.dedupe.snapshotEntries()}
		for i := range s.shards {
			sh := &s.shards[i]
			sh.lock.RLock()
			for k, v := range sh.store {
				snap.Pairs = append(snap.Pairs, wal.KV{Key: k, Value: v})
			}
			sh.lock.RUnlock()
		}
		s.wal.WriteSnapshot(tail, snap) //nolint:errcheck // next trigger retries; segments just stay around
	}()
}

// Crash simulates kill -9 for crash-recovery tests and the chaos
// harness: no drain, no connection grace — the listener and every
// connection are cut, queued-but-unsynced log appends fail (their
// clients never got a response, so nothing acked is lost), and the
// active segment is truncated back to its last fsynced byte. The store
// contents die with the process image; only what the WAL promised
// survives into the next Open of the same directory.
func (s *Server) Crash() error {
	if s.closed.Swap(true) {
		return nil
	}
	err := s.ln.Close()
	s.mu.Lock()
	for cs := range s.active {
		cs.conn.Close()
	}
	s.mu.Unlock()
	if s.wal != nil {
		s.stopScrub()
		// Fails every blocked AppendSync with ErrCrashed, unwinding the
		// handler goroutines conns.Wait joins below.
		if cerr := s.wal.Crash(); err == nil {
			err = cerr
		}
	}
	s.conns.Wait()
	s.walWG.Wait()
	return err
}

// requestRecord maps one applied mutating request onto its log record.
// value is the string a SET or SETV stored: the record shares it rather
// than copying the request's bytes again. client is 0 for text-protocol
// mutations — the text protocol has no dedupe identity, so replay
// restores state but records no response.
func requestRecord(client uint64, r *wire.Request, value string) *wal.Record {
	rec := &wal.Record{Client: client, ID: r.ID, Key: r.Key}
	switch r.Verb {
	case wire.VerbSet:
		rec.Kind = wal.KindSet
		rec.Value = value
	case wire.VerbSetV:
		// An applied SETV logs as a plain set: the version compare already
		// ran (only winners are logged), so replay just restores the bytes
		// — the store ends byte-identical without any version logic in the
		// replay path.
		rec.Kind = wal.KindSet
		rec.Value = value
	case wire.VerbDel:
		rec.Kind = wal.KindDel
	case wire.VerbMDel:
		rec.Kind = wal.KindMDel
		rec.Keys = r.Keys
	case wire.VerbMPut:
		rec.Kind = wal.KindMPut
		rec.Pairs = make([]wal.KV, 0, len(r.Pairs))
		for _, kv := range r.Pairs {
			rec.Pairs = append(rec.Pairs, wal.KV{Key: kv.Key, Value: string(kv.Value)})
		}
	}
	return rec
}

// recordRequest maps a replayed record back onto the request shape
// applyBinary consumes — the inverse of requestRecord.
func recordRequest(rec *wal.Record) (*wire.Request, error) {
	r := &wire.Request{ID: rec.ID, Key: rec.Key}
	switch rec.Kind {
	case wal.KindSet:
		r.Verb = wire.VerbSet
		r.Value = []byte(rec.Value)
	case wal.KindDel:
		r.Verb = wire.VerbDel
	case wal.KindMDel:
		r.Verb = wire.VerbMDel
		r.Keys = rec.Keys
	case wal.KindMPut:
		r.Verb = wire.VerbMPut
		r.Pairs = make([]wire.KV, 0, len(rec.Pairs))
		for _, kv := range rec.Pairs {
			r.Pairs = append(r.Pairs, wire.KV{Key: kv.Key, Value: []byte(kv.Value)})
		}
	default:
		return nil, fmt.Errorf("wal replay: record kind %d has no verb", rec.Kind)
	}
	return r, nil
}

// preload inserts an already-completed recording during WAL recovery,
// so a client retrying a mutation it sent (and we acked) just before
// the crash replays the recorded response instead of applying twice.
func (t *dedupeTable) preload(k dedupeKey, resp []byte) {
	d := t.stripe(k)
	d.mu.Lock()
	if _, ok := d.entries[k]; !ok {
		e := &dedupeEntry{done: make(chan struct{}), resp: resp, doneAt: time.Now()}
		close(e.done)
		d.entries[k] = e
		d.order = append(d.order, k)
	}
	d.mu.Unlock()
}

// snapshotEntries captures the recorded responses still inside the
// retry horizon, for inclusion in a WAL snapshot. Entries with no
// recording yet are skipped — safely: a recording is published (under
// the shard lock) before its WAL record is even enqueued, so any record
// this snapshot's tail covers already has its recording visible here,
// and a skipped entry's mutation either raced in after the rotation
// (its record replays from the log tail, re-deriving the recording) or
// was never applied at all.
func (t *dedupeTable) snapshotEntries() []wal.DedupeEntry {
	now := time.Now()
	var out []wal.DedupeEntry
	for i := range t.stripes {
		d := &t.stripes[i]
		d.mu.Lock()
		for k, e := range d.entries {
			if e.resp != nil && now.Sub(e.doneAt) < t.horizon {
				out = append(out, wal.DedupeEntry{Client: k.client, ID: k.id, Resp: e.resp})
			}
		}
		d.mu.Unlock()
	}
	return out
}
