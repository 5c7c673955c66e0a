package sockets

import (
	"context"
	"fmt"
	"time"

	"repro/internal/sockets/wire"
	"repro/internal/version"
	"repro/internal/wal"
)

// syncWALChunkBytes bounds one SYNCWAL dump chunk's payload. The chunk
// rides inside a RespSyncWAL frame with a few bytes of header (tag, ID,
// next cursor, done flag, length prefixes), so the budget sits safely
// under MaxFrame.
const syncWALChunkBytes = MaxFrame - 4096

// applySyncWAL serves the SYNCWAL verb — the WAL-streaming
// re-replication transport. Dump mode walks this node's log (snapshot,
// sealed segments, and the active segment's fsynced prefix) as raw
// CRC-framed chunks; apply mode folds such a chunk into this node's
// store through the version-conditional SETV path, so streaming is
// idempotent and can never regress a key the receiver already saw a
// newer write for. Both modes are safe to retry: dumps are reads, and
// applies are idempotent by version, like SETV.
func (s *Server) applySyncWAL(r *wire.Request) *wire.Response {
	switch r.Mode {
	case wire.SyncWALDump:
		return s.syncWALDump(r)
	case wire.SyncWALApply:
		return s.syncWALApply(r)
	}
	return &wire.Response{Tag: wire.RespErr, ID: r.ID, Err: fmt.Sprintf("syncwal: unknown mode %d", r.Mode)}
}

// syncWALDump returns the next chunk of this node's log stream from the
// caller's cursor. Frames too large for one chunk are skipped (counted
// server-side); the Merkle repair pass that follows a stream picks those
// keys up. A cursor into a segment that compaction has since pruned
// fails loudly — the caller restarts the dump from cursor 0.
func (s *Server) syncWALDump(r *wire.Request) *wire.Response {
	if s.wal == nil {
		return &wire.Response{Tag: wire.RespErr, ID: r.ID, Err: "syncwal: node is not durable (no WAL to stream)"}
	}
	blob, next, done, skipped, err := s.wal.DumpChunk(r.Cursor, syncWALChunkBytes)
	if err != nil {
		return &wire.Response{Tag: wire.RespErr, ID: r.ID, Err: "syncwal: " + err.Error()}
	}
	if skipped > 0 {
		s.syncSkipped.Add(int64(skipped))
	}
	return &wire.Response{Tag: wire.RespSyncWAL, ID: r.ID, N: next, Done: done, Value: blob}
}

// syncWALApply folds one stream chunk into this node's store. Only
// version-stamped set payloads are applied — through the same
// version-conditional compare SETV uses, under the shard locks, with the
// winners logged to this node's own WAL — so a stale stream record can
// never clobber a newer local write, and re-applying a chunk (a retry
// after a lost response) changes nothing. Everything else in the stream
// (deletes, unstamped values) is skipped: the
// anti-entropy Merkle pass owns those.
// All durability tickets are reserved first and waited at the end, so a
// chunk's records share group-commit fsyncs instead of syncing one by
// one.
func (s *Server) syncWALApply(r *wire.Request) *wire.Response {
	recs, err := wal.DecodeStream(r.Value)
	if err != nil {
		return &wire.Response{Tag: wire.RespErr, ID: r.ID, Err: "syncwal: " + err.Error()}
	}
	applied := uint64(0)
	var ticks []*wal.Ticket
	put := func(key, value string) {
		if validateKey(key) != nil {
			return
		}
		if _, _, err := version.ParseHeader(value); err != nil {
			return // unstamped: not replica data, the Merkle pass decides
		}
		resp, tick := s.applyMutation(&wire.Request{Verb: wire.VerbSetV, Key: key, Value: []byte(value)})
		if tick != nil {
			ticks = append(ticks, tick)
		}
		if resp.Tag == wire.RespCount && SetVAppliedCode(resp.N) {
			applied++
		}
	}
	for _, rec := range recs {
		switch rec.Kind {
		case wal.KindSet:
			put(rec.Key, rec.Value)
		case wal.KindMPut:
			for _, kv := range rec.Pairs {
				put(kv.Key, kv.Value)
			}
		}
	}
	resp := &wire.Response{Tag: wire.RespCount, ID: r.ID, N: applied}
	for _, t := range ticks {
		if resp = s.walWait(resp, t); resp.Tag == wire.RespErr {
			break
		}
	}
	return resp
}

// SyncWALSkipped reports how many oversized log frames dump chunks have
// skipped (each left to the Merkle repair pass).
func (s *Server) SyncWALSkipped() int64 { return s.syncSkipped.Load() }

// WALScrubStats reports the background scrubber's lifetime counters:
// sealed segments verified clean, and corruption findings.
func (s *Server) WALScrubStats() (segments, errors int64) {
	if s.wal == nil {
		return 0, 0
	}
	return s.wal.ScrubbedSegments(), s.wal.ScrubErrors()
}

// startScrub launches the background segment scrubber: every interval
// it re-reads the sealed segments and the snapshot footer and re-checks
// their CRCs, so silent at-rest corruption surfaces while the replicas
// that can repair it are still healthy — instead of at the next crash
// recovery, when the corrupt segment is the only copy. Runs at most one
// pass at a time and stops with the server.
func (s *Server) startScrub(interval time.Duration, onCorrupt func(error)) {
	s.scrubStop = make(chan struct{})
	s.walWG.Add(1)
	go func() {
		defer s.walWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.scrubStop:
				return
			case <-t.C:
			}
			if _, err := s.wal.Scrub(); err != nil {
				// Latch the alarm: one corruption event per incarnation is
				// enough to page on, and the counters keep counting.
				if onCorrupt != nil && s.scrubAlarm.CompareAndSwap(false, true) {
					onCorrupt(err)
				}
			}
		}
	}()
}

// stopScrub halts the scrubber (idempotent; safe when never started).
// Both Close and Crash run it before tearing down the WAL, so a pass
// never races the log's shutdown.
func (s *Server) stopScrub() {
	if s.scrubStop != nil {
		s.scrubOnce.Do(func() { close(s.scrubStop) })
	}
}

// --- client side ---

// SyncWALDumpCtx pulls one chunk of the server's WAL stream from
// cursor. The returned chunk is an opaque CRC-framed blob (feed it to
// SyncWALApplyCtx on another node); next is the cursor for the following
// chunk, valid until done reports the stream's end. Safe to retry: a
// dump mutates nothing.
func (p *Pool) SyncWALDumpCtx(ctx context.Context, cursor uint64) (chunk []byte, next uint64, done bool, err error) {
	resp, err := p.do(ctx, &wire.Request{Verb: wire.VerbSyncWAL, Mode: wire.SyncWALDump, Cursor: cursor})
	if err != nil {
		return nil, 0, false, err
	}
	if resp.Tag != wire.RespSyncWAL {
		return nil, 0, false, respErr(resp)
	}
	return resp.Value, resp.N, resp.Done, nil
}

// SyncWALApplyCtx ships one dumped chunk to the server, which folds the
// version-stamped records into its store (and its own WAL). Returns how
// many records actually applied — retries and stale records fold to
// zero, so the call is idempotent like SETV.
func (p *Pool) SyncWALApplyCtx(ctx context.Context, chunk []byte) (int, error) {
	resp, err := p.do(ctx, &wire.Request{Verb: wire.VerbSyncWAL, Mode: wire.SyncWALApply, Value: chunk})
	if err != nil {
		return 0, err
	}
	if resp.Tag != wire.RespCount {
		return 0, respErr(resp)
	}
	return int(resp.N), nil
}
