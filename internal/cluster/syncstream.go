package cluster

import (
	"context"
	"strings"

	"repro/internal/merkle"
	"repro/internal/version"
	"repro/internal/wal"
)

// WAL-streaming re-replication: when a pair sync's Merkle diff reports
// near-total divergence — a node restarted empty after disk loss, or a
// fresh replica — walking the tree and repairing key by key does one
// SCAN merge-join plus one SETV-sized payload per differing key, with
// the coordinator decoding versions in between. Streaming skips all of
// that: the fuller node's whole durable history (snapshot + segments,
// already CRC-framed on disk) ships as a few big SYNCWAL chunks, the
// coordinator filters each chunk down to the frames the receiver should
// own, and the receiver folds them in through the same version-
// conditional SETV apply path every repair uses. Version stamps and
// tombstones ride along because they are simply bytes in the log. The
// follow-up Merkle pass then covers whatever the stream could not: keys
// only the thinner node had, oversized frames the dump skipped, and
// writes that raced the stream.

// streamEligible reports whether a pair sync should re-replicate by
// streaming the WAL instead of span-repairing key by key: the
// divergence ratio is at or past the configured threshold, and the
// nodes are durable (a memory-only node has no log to dump).
func (c *Cluster) streamEligible(leaves []merkle.Range) bool {
	thr := c.cfg.SyncStreamThreshold
	if thr < 0 || !c.cfg.Durable {
		return false
	}
	return float64(len(leaves)) >= thr*float64(merkle.Buckets)
}

// streamSync re-replicates one diverged pair by WAL streaming: the
// node holding more keys is the source (divergence this deep almost
// always means the other side lost state), its log is pulled chunk by
// chunk, filtered, and pushed to the destination. Returns how many
// frames the destination actually applied — version-conditional, so
// frames the destination already has (or has newer versions of) count
// zero and convergence loops still terminate.
func (c *Cluster) streamSync(ctx context.Context, a, b *node) (int, error) {
	na, err := a.client().CountCtx(ctx)
	if err != nil {
		return 0, err
	}
	nb, err := b.client().CountCtx(ctx)
	if err != nil {
		return 0, err
	}
	src, dst := a, b
	if nb > na {
		src, dst = b, a
	}

	applied := 0
	restarted := false
	var cur uint64
	for {
		chunk, next, done, err := src.client().SyncWALDumpCtx(ctx, cur)
		if err != nil {
			// A snapshot on the source pruned a segment mid-dump: the
			// cursor is stale and the only consistent move is to restart
			// from zero. Re-applied frames are harmless (version-
			// conditional); a second staleness means the source is
			// snapshotting faster than we can stream, so fall back to the
			// Merkle path rather than loop.
			if strings.Contains(err.Error(), "stale dump cursor") && !restarted {
				restarted, cur = true, 0
				continue
			}
			return applied, err
		}
		filtered, err := c.filterStream(chunk, dst.name)
		if err != nil {
			return applied, err
		}
		if len(filtered) > 0 {
			n, err := dst.client().SyncWALApplyCtx(ctx, filtered)
			if err != nil {
				return applied, err
			}
			applied += n
			c.aeStreamBytes.Add(int64(len(filtered)))
		}
		if done {
			break
		}
		cur = next
	}
	c.aeStreams.Add(1)
	c.aeKeysRepaired.Add(int64(applied))
	return applied, nil
}

// filterStream decodes one dump chunk and re-frames only what the
// destination should ingest: Set payloads — MPut pairs flattened to
// single Sets — for keys the destination actually replicates, skipping
// anything without a version stamp (the receiver applies via SETV,
// which needs one; unstamped bytes can't be resolved against what the
// receiver may already hold). Raw Del/MDel records are dropped too:
// cluster deletes are versioned tombstone Sets, so a bare delete frame
// could only have come from outside the cluster's write path, and
// blindly erasing the receiver's copy could destroy a newer version.
func (c *Cluster) filterStream(chunk []byte, dstName string) ([]byte, error) {
	if len(chunk) == 0 {
		return nil, nil
	}
	recs, err := wal.DecodeStream(chunk)
	if err != nil {
		return nil, err
	}
	keep := func(key, value string) bool {
		if !c.replicaFor(key, dstName) {
			return false
		}
		_, _, err := version.ParseHeader(value)
		return err == nil
	}
	var out []byte
	for _, rec := range recs {
		switch rec.Kind {
		case wal.KindSet:
			if keep(rec.Key, rec.Value) {
				out = wal.AppendStreamRecord(out, rec)
			}
		case wal.KindMPut:
			for _, kv := range rec.Pairs {
				if keep(kv.Key, kv.Value) {
					out = wal.AppendStreamRecord(out, &wal.Record{Kind: wal.KindSet, Key: kv.Key, Value: kv.Value})
				}
			}
		}
	}
	return out, nil
}

// AntiEntropyStreams reports how many WAL-streaming re-replications
// anti-entropy passes have completed.
func (c *Cluster) AntiEntropyStreams() int64 { return c.aeStreams.Load() }

// AntiEntropyStreamBytes reports the filtered frame bytes those
// streams shipped.
func (c *Cluster) AntiEntropyStreamBytes() int64 { return c.aeStreamBytes.Load() }
