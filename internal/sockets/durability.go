package sockets

import (
	"fmt"
	"runtime"

	"repro/internal/db"
	"repro/internal/sockets/wire"
	"repro/internal/wal"
)

// defaultSnapshotEvery is how many logged mutations accumulate before
// the server compacts a snapshot when WALSnapshotEvery is unset.
const defaultSnapshotEvery = 10000

// openWAL wires the write-ahead log into a starting server: recovery
// first (snapshot pairs loaded into the store, then the log tail
// replayed as the plain writes it records), then the log is live and
// every mutating request is appended — and fsynced, via the group
// committer — before its response leaves the server. Runs before the
// accept loop starts, so recovery never races live traffic.
func (s *Server) openWAL(cfg ServerConfig) error {
	l, err := wal.Open(wal.Config{
		Dir:           cfg.WALDir,
		SegmentBytes:  cfg.WALSegmentBytes,
		ReplayWorkers: runtime.GOMAXPROCS(0),
		OnSnapshot: func(snap *wal.Snapshot) error {
			// Snapshot pairs load as the plain writes the log tail
			// replays, which keeps the anti-entropy digest in step.
			for _, kv := range snap.Pairs {
				s.replaySet(kv.Key, kv.Value)
			}
			return nil
		},
		OnRecord: s.replay,
	})
	if err != nil {
		return err
	}
	s.wal = l
	s.walEvery = int64(cfg.WALSnapshotEvery)
	if s.walEvery <= 0 {
		s.walEvery = defaultSnapshotEvery
	}
	s.recoveredKeys = s.store.len()
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
// caller releases resp, the response the mutation earned when it was
// applied. The reservation itself (wal.Begin) happens inside
// applyMutation, under the shard lock(s) that ordered the mutation — log
// order equals apply order, which is what makes replay and the snapshot
// protocol sound (state captured after a rotation covers every record
// enqueued before it; see maybeSnapshot). A nil ticket (memory-only
// server, or nothing logged) returns resp as it is.
func (s *Server) walWait(resp *wire.Response, t *wal.Ticket) *wire.Response {
	if t == nil {
		return resp
	}
	return s.walOutcome(resp, t.Wait())
}

// walOutcome turns a reserved append's outcome into the response that
// may leave the server: a failed append answers ERR "durability: …" on
// the request's ID instead of resp, and a durable one bumps the snapshot
// trigger. Both the blocking walWait and the read loop's Ticket.Then
// callback, which runs on the commit loop, go through it, so it must not
// block.
func (s *Server) walOutcome(resp *wire.Response, err error) *wire.Response {
	if err != nil {
		return &wire.Response{Tag: wire.RespErr, ID: resp.ID, Err: "durability: " + err.Error()}
	}
	if s.walSince.Add(1) >= s.walEvery {
		s.maybeSnapshot()
	}
	return resp
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
		// mutation is applied to the store and its record enqueued under
		// the same shard lock(s) — the capture below sees the effects of
		// every such record. Records that race in after the rotation land
		// at or past tail and replay over the snapshot, which is
		// idempotent (same values, log order).
		tail, err := s.wal.Rotate()
		if err != nil {
			return // closed, crashed, or a latched I/O error: not our problem to report
		}
		// The pairs are views into the store's cells: capturing copies
		// no key or value.
		snap := &wal.Snapshot{Pairs: make([]wal.KV, 0, s.store.len())}
		s.store.each(func(k, v string) {
			snap.Pairs = append(snap.Pairs, wal.KV{Key: k, Value: v})
		})
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
		// Fails every pending append with ErrCrashed, unwinding the
		// handler goroutines and answering the Ticket.Then callbacks
		// that conns.Wait joins below.
		if cerr := s.wal.Crash(); err == nil {
			err = cerr
		}
	}
	s.conns.Wait()
	s.walWG.Wait()
	return err
}

// replay applies one logged mutation during recovery as the plain
// write it records: the live path already ran any version compare and
// logged only what changed the store. Logs written before MPUT compared
// stamps, which may hold unstamped MPUT pairs, replay the same way.
// Parallel replay applies every record of one key on one worker, in log
// order, and a record spanning several stripes alone, so each key's
// shard lock is all the locking replay needs.
func (s *Server) replay(rec *wal.Record) error {
	switch rec.Kind {
	case wal.KindSet:
		s.replaySet(rec.Key, rec.Value)
	case wal.KindMPut:
		for _, kv := range rec.Pairs {
			s.replaySet(kv.Key, kv.Value)
		}
	case wal.KindDel:
		s.replayDel(rec.Key)
	case wal.KindMDel:
		for _, k := range rec.Keys {
			s.replayDel(k)
		}
	default:
		return fmt.Errorf("wal replay: record kind %d has no verb", rec.Kind)
	}
	return nil
}

func (s *Server) replaySet(key, value string) {
	pos := db.RingPos(key)
	sp, at := s.store.locate(pos)
	sp.lock.Lock()
	old, had := sp.get(at, key)
	sp.set(at, key, value)
	s.digestApply(pos, key, old, value, had, true)
	sp.lock.Unlock()
}

func (s *Server) replayDel(key string) {
	pos := db.RingPos(key)
	sp, at := s.store.locate(pos)
	sp.lock.Lock()
	if old, ok := sp.del(at, key); ok {
		s.digestApply(pos, key, old, "", true, false)
	}
	sp.lock.Unlock()
}
