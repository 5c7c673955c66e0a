package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/sched"
)

// replayStripes is the partition width of parallel replay. Records are
// routed to a stripe by an FNV-1a hash of their key, so two records for
// the same key always land on the same stripe and are applied in log
// order by the same worker. 64 stripes keeps per-stripe skew low at any
// plausible worker count without making the fan-out bookkeeping
// expensive.
const replayStripes = 64

// replaySeg is one loaded segment awaiting replay: the file path (for
// error messages and tail truncation) and its full contents.
type replaySeg struct {
	path string
	data []byte
}

// replaySegments replays the loaded segments in log order through fn
// and returns each segment's valid byte count (so the caller can
// truncate a torn tail) plus the total record count. workers <= 1 is
// the classic serial scan; workers > 1 runs the three-phase parallel
// replay below. Both paths enforce identical corruption semantics: a
// torn frame is tolerated (and truncated) only at the tail of the last
// segment, and every other malformed byte fails the whole replay with
// ErrCorrupt.
func replaySegments(segs []replaySeg, workers int, fn func(*Record) error) ([]int64, int64, error) {
	if workers > 1 && len(segs) > 0 {
		return replayParallel(segs, workers, fn)
	}
	valids := make([]int64, len(segs))
	var recs int64
	for i, s := range segs {
		valid, n, err := replaySegment(s.data, i == len(segs)-1, fn)
		if err != nil {
			return nil, 0, fmt.Errorf("wal: replay %s: %w", s.path, err)
		}
		valids[i] = valid
		recs += int64(n)
	}
	return valids, recs, nil
}

// frameRef locates one frame inside a loaded segment: which segment,
// and the payload bounds within it. The slice of frameRefs across all
// segments is the global log order.
type frameRef struct {
	seg      int
	off, end int // payload bytes are data[off:end]
}

// replayParallel is the fan-out replay: (A) a serial frame-boundary
// scan (varint headers only — no CRC, no decode) that also finds the
// torn tail exactly where the serial path would; (B) a parallel pass
// that CRC-verifies and decodes every frame, so all corruption is
// detected before any record is applied; (C) a parallel apply pass
// partitioned by key stripe. Phase C splits the log into runs at every
// record whose keys span more than one stripe (an MPUT/MDEL batch):
// such a record is applied alone, as a barrier, so no record is ever
// split across workers. Within
// a run, each stripe's records are applied in log order by one worker,
// so for any single key the apply order is exactly the serial order.
func replayParallel(segs []replaySeg, workers int, fn func(*Record) error) ([]int64, int64, error) {
	valids := make([]int64, len(segs))
	var frames []frameRef
	for i, s := range segs {
		off := 0
		for off < len(s.data) {
			end, err := scanFrame(s.data[off:])
			if errors.Is(err, errTorn) {
				if i == len(segs)-1 {
					break // the crash's final, never-acked record
				}
				return nil, 0, fmt.Errorf("wal: replay %s: %w: torn frame inside a sealed segment at offset %d", s.path, ErrCorrupt, off)
			}
			if err != nil {
				return nil, 0, fmt.Errorf("wal: replay %s: %w at offset %d", s.path, err, off)
			}
			frames = append(frames, frameRef{seg: i, off: off, end: off + end})
			off += end
		}
		valids[i] = int64(off)
	}
	if len(frames) == 0 {
		return valids, 0, nil
	}

	pool := sched.New(workers)
	defer pool.Close()

	// Phase B: verify and decode everything up front. Corruption must
	// fail Open before fn sees a single record, exactly like the serial
	// scan, so a poisoned log never half-applies.
	recs := make([]Record, len(frames))
	var decMu sync.Mutex
	decErrAt, decErr := len(frames), error(nil)
	grain := pool.DefaultGrain(len(frames))
	pool.ParallelFor(len(frames), grain, func(lo, hi int) { //nolint:errcheck // pool is private and open
		for i := lo; i < hi; i++ {
			f := frames[i]
			payload, _, err := readFrame(segs[f.seg].data[f.off:f.end])
			if err == nil {
				err = decodeRecordInto(payload, &recs[i])
			}
			if err != nil {
				decMu.Lock()
				if i < decErrAt {
					decErrAt, decErr = i, err
				}
				decMu.Unlock()
				return
			}
		}
	})
	if decErr != nil {
		f := frames[decErrAt]
		if errors.Is(decErr, errTorn) {
			// scanFrame accepted the bounds, so the bytes are all here;
			// a short read inside them is structural corruption.
			decErr = fmt.Errorf("%w: truncated frame", ErrCorrupt)
		}
		return nil, 0, fmt.Errorf("wal: replay %s: %w at offset %d", segs[f.seg].path, decErr, f.off)
	}
	if fn == nil {
		return valids, int64(len(recs)), nil
	}

	// Phase C: apply by stripe, run by run.
	var applyMu sync.Mutex
	applyErrAt, applyErr := len(recs), error(nil)
	perStripe := make([][]int, replayStripes)
	flush := func() error {
		defer func() {
			for s := range perStripe {
				perStripe[s] = perStripe[s][:0]
			}
		}()
		pool.ParallelFor(replayStripes, 1, func(lo, hi int) { //nolint:errcheck
			for s := lo; s < hi; s++ {
				for _, idx := range perStripe[s] {
					if err := fn(&recs[idx]); err != nil {
						applyMu.Lock()
						if idx < applyErrAt {
							applyErrAt, applyErr = idx, err
						}
						applyMu.Unlock()
						return
					}
				}
			}
		})
		return applyErr
	}
	for i := range recs {
		s := recordStripe(&recs[i])
		if s < 0 { // spans stripes: barrier — drain, apply alone
			if err := flush(); err != nil {
				break
			}
			if err := fn(&recs[i]); err != nil {
				applyMu.Lock()
				if i < applyErrAt {
					applyErrAt, applyErr = i, err
				}
				applyMu.Unlock()
				break
			}
			continue
		}
		perStripe[s] = append(perStripe[s], i)
	}
	if applyErr == nil {
		flush() //nolint:errcheck // applyErr is latched inside
	}
	if applyErr != nil {
		return nil, 0, applyErr
	}
	return valids, int64(len(recs)), nil
}

// scanFrame bounds-checks one frame header at the head of data and
// returns the full frame length, without touching the CRC or payload.
// Its error contract mirrors readFrame exactly: errTorn when the bytes
// simply stop mid-frame, ErrCorrupt for anything full bytes cannot
// explain.
func scanFrame(data []byte) (n int, err error) {
	ln, un := binary.Uvarint(data)
	if un == 0 {
		return 0, errTorn
	}
	if un < 0 {
		return 0, fmt.Errorf("%w: overlong length header", ErrCorrupt)
	}
	if ln == 0 {
		return 0, fmt.Errorf("%w: zero-length record", ErrCorrupt)
	}
	if ln > MaxRecord {
		return 0, fmt.Errorf("%w: length header %d exceeds %d", ErrCorrupt, ln, MaxRecord)
	}
	if uint64(len(data)-un) < 4+ln {
		return 0, errTorn
	}
	return un + 4 + int(ln), nil
}

// recordStripe routes a record to its apply stripe: the FNV-1a hash of
// its key, or -1 when a batch record's keys land on more than one
// stripe (the caller then applies it as a barrier).
func recordStripe(r *Record) int {
	switch r.Kind {
	case KindSet, KindDel:
		return stripeOf(r.Key)
	case KindMPut:
		if len(r.Pairs) == 0 {
			return 0
		}
		s := stripeOf(r.Pairs[0].Key)
		for _, kv := range r.Pairs[1:] {
			if stripeOf(kv.Key) != s {
				return -1
			}
		}
		return s
	case KindMDel:
		if len(r.Keys) == 0 {
			return 0
		}
		s := stripeOf(r.Keys[0])
		for _, k := range r.Keys[1:] {
			if stripeOf(k) != s {
				return -1
			}
		}
		return s
	}
	return 0
}

// stripeOf is FNV-1a over the key, mod replayStripes, computed without
// allocating.
func stripeOf(key string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h % replayStripes)
}
