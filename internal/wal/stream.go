// The SYNCWAL stream format: how one node's durable history travels to
// a peer as raw CRC-checked frames instead of key-by-key scans.
//
// A stream is a concatenation of the same uvarint-length + CRC32C
// frames the segment files use. Record frames are copied out of sealed
// segments verbatim — same payload bytes, same checksum, no re-encode —
// so the receiver re-verifies the exact bits that were fsynced at the
// source. Snapshot contents are synthesized into KindSet record frames.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ErrStaleCursor means a DumpChunk cursor named a segment that has
// since been compacted into a snapshot: the chunks already shipped may
// predate that snapshot, so the only consistent move is to restart the
// dump from zero.
var ErrStaleCursor = errors.New("wal: stale dump cursor")

// AppendStreamRecord frames one record onto dst.
func AppendStreamRecord(dst []byte, r *Record) []byte {
	return appendFrame(dst, r.encode(nil))
}

// DecodeStream walks a stream chunk and decodes every frame. Unlike
// segment replay there is no tolerable tear: the bytes arrived over a
// connection that delivered them whole, so anything short or mismatched
// is ErrCorrupt and the caller must discard the chunk.
func DecodeStream(data []byte) ([]*Record, error) {
	var recs []*Record
	off := 0
	for off < len(data) {
		payload, n, err := readFrame(data[off:])
		if errors.Is(err, errTorn) {
			return nil, fmt.Errorf("%w: truncated stream frame at offset %d", ErrCorrupt, off)
		}
		if err != nil {
			return nil, fmt.Errorf("%w at stream offset %d", err, off)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, nil
}

// DumpChunk produces the next chunk of a full-log dump: the snapshot
// first (synthesized frames), then every segment in sequence order —
// sealed ones byte-for-byte, and finally the active segment's
// currently-readable valid prefix, so everything fsynced at the moment
// of the walk is included. The cursor is opaque to callers: pass 0 to
// start and the returned next thereafter; done reports the walk has
// passed the end of the active segment.
//
// The dump takes no locks across calls and copies no state up front, so
// a log owner keeps serving appends, rotations, and snapshots while
// being dumped. The price is that a snapshot write can prune a segment
// between chunks; the next DumpChunk then fails with ErrStaleCursor and
// the caller restarts from zero. Frames the receiver applies twice are
// harmless — the consumer applies them version-conditionally.
//
// A frame too large for maxBytes is skipped rather than shipped (the
// count comes back in skipped); the caller's follow-up Merkle pass
// repairs those keys. maxBytes is a soft target: at least one frame is
// emitted per call when one fits.
func (l *Log) DumpChunk(cur uint64, maxBytes int) (blob []byte, next uint64, done bool, skipped int, err error) {
	if maxBytes <= 0 {
		return nil, 0, false, 0, errors.New("wal: DumpChunk maxBytes must be positive")
	}
	l.mu.Lock()
	if serr := l.stateErrLocked(); serr != nil {
		l.mu.Unlock()
		return nil, 0, false, 0, serr
	}
	sealed := append([]uint64(nil), l.sealed...)
	act := l.actSeq
	l.mu.Unlock()

	seq := cur >> 32
	off := int(cur & 0xffffffff)

	if seq == 0 {
		blob, next, skipped, err = l.dumpSnapshot(off, maxBytes, sealed, act)
		return blob, next, false, skipped, err
	}

	data, rerr := os.ReadFile(l.segPath(seq))
	if os.IsNotExist(rerr) {
		return nil, 0, false, 0, ErrStaleCursor
	}
	if rerr != nil {
		return nil, 0, false, 0, rerr
	}
	tolerant := seq >= act // the active segment may end mid-write
	for off < len(data) {
		payload, n, ferr := readFrame(data[off:])
		if errors.Is(ferr, errTorn) {
			if tolerant {
				break // end of the fsynced prefix
			}
			return nil, 0, false, 0, fmt.Errorf("wal: dump %s: %w: torn frame inside a sealed segment at offset %d", l.segPath(seq), ErrCorrupt, off)
		}
		if ferr != nil {
			return nil, 0, false, 0, fmt.Errorf("wal: dump %s: %w at offset %d", l.segPath(seq), ferr, off)
		}
		_ = payload
		if len(blob)+n > maxBytes {
			if n > maxBytes {
				off += n
				skipped++
				continue
			}
			return blob, seq<<32 | uint64(off), false, skipped, nil
		}
		blob = append(blob, data[off:off+n]...)
		off += n
	}
	if ns, ok := nextSeqAfter(seq, sealed, act); ok {
		return blob, ns << 32, false, skipped, nil
	}
	return blob, 0, true, skipped, nil
}

// dumpSnapshot emits the snapshot's pairs from index off. When the
// snapshot is exhausted (or absent) the cursor advances to the first
// segment.
func (l *Log) dumpSnapshot(off, maxBytes int, sealed []uint64, act uint64) (blob []byte, next uint64, skipped int, err error) {
	_, snap, err := loadSnapshotFile(filepath.Join(l.dir, snapName))
	if err != nil {
		return nil, 0, 0, err
	}
	first, _ := nextSeqAfter(0, sealed, act) // the active segment always exists
	if snap == nil {
		return nil, first << 32, 0, nil
	}
	var frame []byte
	for ; off < len(snap.Pairs); off++ {
		kv := snap.Pairs[off]
		frame = AppendStreamRecord(frame[:0], &Record{Kind: KindSet, Key: kv.Key, Value: kv.Value})
		if len(blob)+len(frame) > maxBytes {
			if len(frame) > maxBytes {
				skipped++
				continue
			}
			return blob, uint64(off), skipped, nil
		}
		blob = append(blob, frame...)
	}
	return blob, first << 32, skipped, nil
}

// nextSeqAfter is the smallest live segment sequence greater than seq,
// considering sealed segments and the active one.
func nextSeqAfter(seq uint64, sealed []uint64, act uint64) (uint64, bool) {
	best, ok := uint64(0), false
	for _, s := range sealed {
		if s > seq && (!ok || s < best) {
			best, ok = s, true
		}
	}
	if act > seq && (!ok || act < best) {
		best, ok = act, true
	}
	return best, ok
}
