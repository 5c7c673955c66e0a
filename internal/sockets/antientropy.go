package sockets

import (
	"sort"
	"strings"

	"repro/internal/merkle"
	"repro/internal/sockets/wire"
	"repro/internal/version"
)

// SETV outcome codes, carried in the RespCount body.
// The verb is a version-conditional set: the server decodes the stored
// value's stamp, compares it to the incoming one, and applies the write
// only if the incoming version wins the cluster's total order. The
// split between plain and concurrent outcomes is what lets hint replay
// count conflicting histories instead of silently dropping them.
const (
	// SetVApplied: the incoming version strictly dominates what was
	// stored (or nothing decodable was stored) — the write landed.
	SetVApplied uint64 = 0
	// SetVAppliedConcurrent: the versions were causally concurrent and
	// the incoming one won the tiebreak — the write landed.
	SetVAppliedConcurrent uint64 = 1
	// SetVStale: the stored version dominates or equals the incoming
	// one — nothing changed.
	SetVStale uint64 = 2
	// SetVStaleConcurrent: the versions were causally concurrent and
	// the stored one won the tiebreak — nothing changed.
	SetVStaleConcurrent uint64 = 3
)

// SetVAppliedCode reports whether a SETV outcome code means the write
// was applied.
func SetVAppliedCode(code uint64) bool {
	return code == SetVApplied || code == SetVAppliedConcurrent
}

// setvOutcome compares an incoming value's stamp against the stored
// value and decides whether to apply. Both stamps are read in place,
// with no allocation. A stored value without a binary stamp (missing,
// text-stamped, or corrupted) loses: SETV's callers always carry
// well-formed stamps, so whatever is there predates the binary header
// or was damaged — either way the stamped write is the one to keep.
func setvOutcome(cur string, curOK bool, in version.Header) (apply bool, code uint64) {
	if !curOK {
		return true, SetVApplied
	}
	curV, _, err := version.ParseHeader(cur)
	if err != nil {
		return true, SetVApplied
	}
	switch in.Compare(curV) {
	case version.Dominates:
		return true, SetVApplied
	case version.Concurrent:
		if in.Newer(curV) {
			return true, SetVAppliedConcurrent
		}
		return false, SetVStaleConcurrent
	}
	return false, SetVStale
}

// digestApply folds one store mutation into the anti-entropy digest.
// Runs under the shard lock that ordered the mutation; excluded keys
// (hints) never touch the digest.
func (s *Server) digestApply(key, oldValue, newValue string, hadOld, hasNew bool) {
	if s.syncExclude != "" && strings.HasPrefix(key, s.syncExclude) {
		return
	}
	s.digest.Apply(key, oldValue, newValue, hadOld, hasNew)
}

// clampSpan clips a wire span to the digest's bucket universe.
func clampSpan(sp wire.Span) (lo, hi int) {
	lo, hi = int(sp.Lo), int(sp.Hi)
	if hi > merkle.Buckets {
		hi = merkle.Buckets
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// applyTree answers TREE: one range hash per requested span.
func (s *Server) applyTree(r *wire.Request) *wire.Response {
	resp := &wire.Response{Tag: wire.RespHashes, ID: r.ID, Hashes: make([]uint64, 0, len(r.Spans))}
	for _, sp := range r.Spans {
		lo, hi := clampSpan(sp)
		resp.Hashes = append(resp.Hashes, s.digest.RangeHash(lo, hi))
	}
	return resp
}

// applyScan answers SCAN: every stored (key, entry hash) whose bucket
// falls inside any requested span, sorted by key. A key's bucket is its
// Merkle bucket, plus merkle.Buckets for a key kept out of the digest,
// so those keys (the cluster's parked hints) list on their own and no
// TREE-guided scan, whose spans all lie below merkle.Buckets, meets
// them. Values never leave the node here — the cluster compares entry
// hashes and fetches only the keys it needs. Shards are read-locked one
// at a time (point-in-time per stripe, like COUNT); anti-entropy
// tolerates the skew — a transiently wrong hash just re-scans next
// round.
func (s *Server) applyScan(r *wire.Request) *wire.Response {
	resp := &wire.Response{Tag: wire.RespScan, ID: r.ID}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.lock.RLock()
		for k, v := range sh.store {
			b := uint32(merkle.BucketOf(k))
			if s.syncExclude != "" && strings.HasPrefix(k, s.syncExclude) {
				b += merkle.Buckets
			}
			for _, sp := range r.Spans {
				if b >= sp.Lo && b < sp.Hi {
					resp.Scan = append(resp.Scan, wire.ScanEntry{Key: k, Hash: merkle.EntryHash(k, v)})
					break
				}
			}
		}
		sh.lock.RUnlock()
	}
	sort.Slice(resp.Scan, func(i, j int) bool { return resp.Scan[i].Key < resp.Scan[j].Key })
	return resp
}
