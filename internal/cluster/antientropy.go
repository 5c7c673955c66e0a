package cluster

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/merkle"
	"repro/internal/sockets"
	"repro/internal/sockets/wire"
)

// Anti-entropy is the cluster's one repair path for replicas that
// missed writes: read repair fixes the divergence a quorum read
// happens to observe, but a replica that silently missed writes — it
// was down, falsely suspected, or partitioned — stays wrong until an
// active sweep reaches it. A returning node's catch-up is the same
// sweep, run between that node and each live peer. Each node maintains
// a Merkle digest over its keyspace (4096 buckets keyed by ring
// position, see internal/merkle); a sync pass walks every live node
// pair down the mismatched subtrees with TREE requests, lists only the
// divergent buckets' keys with SCAN, and repairs each differing key
// with version-conditional SETVs, so the receiving replica keeps
// whichever copy is newer. Matching subtrees are never descended into
// and values only move for keys that actually differ, so the traffic
// scales with the divergence, not the keyspace.

// readRepair is the quorum read's background write-back: the winning
// encoded value is pushed version-conditionally to the replicas the
// read observed stale. Racing writes are safe — a replica that moved
// on to a newer version just reports the repair stale and keeps what
// it has.
func (c *Cluster) readRepair(key, raw string, stale []*node) {
	for _, n := range stale {
		if n.down.Load() {
			continue
		}
		ctx, cancel := context.WithTimeout(c.ctx, c.cfg.PoolTimeout)
		code, err := n.client().SetVCtx(ctx, key, raw)
		cancel()
		if err == nil && sockets.SetVAppliedCode(code) {
			c.readRepairs.Add(1)
		}
	}
}

// antiEntropyLoop runs SyncNow at the configured interval until the
// cluster closes.
func (c *Cluster) antiEntropyLoop() {
	defer c.hbWG.Done()
	t := time.NewTicker(c.cfg.AntiEntropyInterval)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.SyncNow(c.ctx) //nolint:errcheck // periodic: a failed pass retries next tick
		}
	}
}

// SyncNow runs one synchronous anti-entropy pass over every unordered
// pair of live nodes and returns how many key copies it repaired
// (version-conditional writes that applied). A converged cluster
// returns 0, which is what benches and tests loop on to measure
// time-to-convergence deterministically instead of sleeping. The first
// transport error is returned after the remaining pairs have been
// tried — one unreachable node must not stop the others from
// converging.
func (c *Cluster) SyncNow(ctx context.Context) (int, error) {
	if c.closed.Load() {
		return 0, ErrClosed
	}
	live := c.liveNodes()
	repaired := 0
	var firstErr error
	for i := 0; i < len(live); i++ {
		for j := i + 1; j < len(live); j++ {
			if err := ctx.Err(); err != nil {
				return repaired, err
			}
			n, err := c.syncPair(ctx, live[i], live[j])
			repaired += n
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return repaired, firstErr
}

// liveNodes returns the members that are neither killed nor marked
// down, in join order.
func (c *Cluster) liveNodes() []*node {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	live := make([]*node, 0, len(c.order))
	for _, name := range c.order {
		if n := c.nodes[name]; n != nil && !n.down.Load() && !n.killed.Load() {
			live = append(live, n)
		}
	}
	return live
}

// catchUp brings a returning node up to date: one syncPair between n
// and each live peer, so n ends holding every key it replicates that
// some live peer holds, and its peers get whatever only n kept. A wiped
// durable node is rebuilt here by the same WAL stream SyncNow would
// pick. A pair whose sync fails is left to the next anti-entropy pass.
// Returns the number of key copies repaired, which an EventCatchUp
// reports when it is not zero.
func (c *Cluster) catchUp(n *node) int {
	repaired := 0
	for _, peer := range c.liveNodes() {
		if c.ctx.Err() != nil {
			break
		}
		if peer != n {
			k, _ := c.syncPair(c.ctx, n, peer) // a failed pair waits for the next pass
			repaired += k
		}
	}
	if repaired > 0 {
		c.emit(EventCatchUp, n.name, strconv.Itoa(repaired)+" keys")
	}
	return repaired
}

// aeBatch caps how many Merkle spans one TREE request carries, and how
// many buckets wide one SCAN batch is, during a sync pass: it bounds
// per-request work on the remote node while keeping round trips few.
const aeBatch = 64

// syncPair converges one node pair: Merkle diff walk, then a batched
// scan-and-repair over the divergent bucket spans.
func (c *Cluster) syncPair(ctx context.Context, a, b *node) (int, error) {
	leaves, err := merkle.Diff(a.tree(ctx), b.tree(ctx), aeBatch)
	if err != nil {
		return 0, err
	}
	c.aeSyncs.Add(1)
	if len(leaves) == 0 {
		return 0, nil
	}
	c.aeRanges.Add(int64(len(leaves)))

	repaired := 0
	if c.streamEligible(leaves) {
		n, serr := c.streamSync(ctx, a, b)
		repaired += n
		if serr == nil {
			// Re-diff after the stream: the bulk moved as raw frames, so
			// the span walk below covers only the remainder — keys the
			// stream's source never had, frames the dump skipped, and
			// writes that raced in. On a stream error the original leaves
			// stand and the Merkle path repairs everything the slow way.
			if fresh, derr := merkle.Diff(a.tree(ctx), b.tree(ctx), aeBatch); derr == nil {
				leaves = fresh
			}
		}
		if len(leaves) == 0 {
			return repaired, nil
		}
	}

	// Batch the coalesced spans by total bucket width, not span count:
	// near-total divergence coalesces thousands of dirty leaves into a
	// handful of giant spans, and scanning one of those in a single
	// round trip returns every key it covers — past ~80k keys that is
	// a larger frame than the wire allows. Width-bounded batches keep
	// each SCAN's reply proportional to keyspace/Buckets × batch.
	for _, batch := range batchSpansByWidth(toSpans(merkle.Coalesce(leaves)), aeBatch) {
		n, err := c.repairSpans(ctx, a, b, batch)
		repaired += n
		if err != nil {
			return repaired, err
		}
	}
	return repaired, nil
}

// tree is n's digest as a merkle.Fetcher, served by TREE requests.
func (n *node) tree(ctx context.Context) merkle.Fetcher {
	return func(ranges []merkle.Range) ([]uint64, error) {
		return n.client().TreeCtx(ctx, toSpans(ranges))
	}
}

// CheckDigests checks each live node's anti-entropy digest against its
// store: the node's TREE hashes must equal those of a digest rebuilt
// from its own SCAN entry hashes, which SCAN computes from the stored
// values. A digest that misses some mutation on every replica alike
// still lets each pair compare equal, so only this check sees it. Run
// it on a quiet cluster: a write between the SCAN and the TREE reads as
// a mismatch.
func (c *Cluster) CheckDigests(ctx context.Context) error {
	for _, n := range c.liveNodes() {
		var rebuilt merkle.Tree
		for _, spans := range batchSpansByWidth([]wire.Span{{Lo: 0, Hi: merkle.Buckets}}, aeBatch) {
			page, err := n.client().ScanCtx(ctx, spans)
			if err != nil {
				return fmt.Errorf("cluster: scan %s: %w", n.name, err)
			}
			for _, e := range page {
				rebuilt.ApplyEntry(e.Key, e.Hash)
			}
		}
		leaves, err := merkle.Diff(n.tree(ctx), rebuilt.Local(), aeBatch)
		if err != nil {
			return fmt.Errorf("cluster: tree %s: %w", n.name, err)
		}
		if len(leaves) > 0 {
			return fmt.Errorf("cluster: %s's digest disagrees with its store in %d buckets", n.name, len(leaves))
		}
	}
	return nil
}

// batchSpansByWidth splits spans into batches whose total bucket width
// is at most budget, cutting spans wider than the budget. Order is
// preserved, so the repair still walks the keyspace once, low to high.
func batchSpansByWidth(spans []wire.Span, budget int) [][]wire.Span {
	if budget < 1 {
		budget = 1
	}
	var batches [][]wire.Span
	var cur []wire.Span
	width := 0
	for _, s := range spans {
		lo := s.Lo
		for lo < s.Hi {
			hi := s.Hi
			if int(hi-lo) > budget-width {
				hi = lo + uint32(budget-width)
			}
			cur = append(cur, wire.Span{Lo: lo, Hi: hi})
			width += int(hi - lo)
			lo = hi
			if width == budget {
				batches = append(batches, cur)
				cur, width = nil, 0
			}
		}
	}
	if len(cur) > 0 {
		batches = append(batches, cur)
	}
	return batches
}

// scanKeys pages buckets [lo, hi) of every node in srcs through SCANs
// at most width buckets wide, so no reply outgrows a wire frame, and
// calls visit with each page's keys, each key once however many
// sources hold it; visit returns false to end the walk. A source whose
// SCAN fails is dropped for the rest of the walk: the others may still
// hold its keys. Returns ctx's error if that ended the walk.
func scanKeys(ctx context.Context, srcs []*node, lo, hi, width int, visit func(keys []string) bool) error {
	for _, spans := range batchSpansByWidth([]wire.Span{{Lo: uint32(lo), Hi: uint32(hi)}}, width) {
		if len(srcs) == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		seen := make(map[string]struct{})
		var keys []string
		live := srcs[:0]
		for _, n := range srcs {
			page, err := n.client().ScanCtx(ctx, spans)
			if err != nil {
				continue
			}
			live = append(live, n)
			for _, e := range page {
				if _, dup := seen[e.Key]; !dup {
					seen[e.Key] = struct{}{}
					keys = append(keys, e.Key)
				}
			}
		}
		srcs = live
		if len(keys) > 0 && !visit(keys) {
			return nil
		}
	}
	return ctx.Err()
}

// repairSpans scans one batch of divergent bucket spans on both nodes
// and repairs every key that differs. The scans return (key, entry
// hash) pairs sorted by key, so a single merge-join finds each key
// missing on one side or present on both with different bytes. A
// missing key is pushed to the side that lacks it; a conflicting key
// is pushed both ways, and each receiving server's SETV compare keeps
// the newer copy — the client picks no winner.
func (c *Cluster) repairSpans(ctx context.Context, a, b *node, spans []wire.Span) (int, error) {
	ea, err := a.client().ScanCtx(ctx, spans)
	if err != nil {
		return 0, err
	}
	eb, err := b.client().ScanCtx(ctx, spans)
	if err != nil {
		return 0, err
	}

	var toB, toA []string
	i, j := 0, 0
	for i < len(ea) || j < len(eb) {
		switch {
		case j >= len(eb) || (i < len(ea) && ea[i].Key < eb[j].Key):
			toB = append(toB, ea[i].Key)
			i++
		case i >= len(ea) || eb[j].Key < ea[i].Key:
			toA = append(toA, eb[j].Key)
			j++
		default:
			if ea[i].Hash != eb[j].Hash {
				toB = append(toB, ea[i].Key)
				toA = append(toA, eb[j].Key)
			}
			i++
			j++
		}
	}
	repaired := 0
	for _, push := range []struct {
		src, dst *node
		keys     []string
	}{{a, b, toB}, {b, a, toA}} {
		if len(push.keys) == 0 {
			continue
		}
		vals, err := c.fetchRaw(ctx, push.src, push.keys)
		if err != nil {
			return repaired, err
		}
		for _, k := range push.keys {
			if raw, ok := vals[k]; ok && c.pushRepair(ctx, push.dst, k, raw) {
				repaired++
			}
		}
	}
	return repaired, nil
}

// fetchRawChunk bounds one bulk read: both the request (keys) and the
// reply (values) must fit a wire frame whatever the span batching let
// through, so a scan that surfaced many keys reads them in slices.
const fetchRawChunk = 128

// fetchRaw bulk-reads the given keys' stored bytes from one node. Keys
// deleted between the scan and the fetch are simply absent from the
// result — the next pass re-evaluates them.
func (c *Cluster) fetchRaw(ctx context.Context, n *node, keys []string) (map[string]string, error) {
	out := make(map[string]string, len(keys))
	for len(keys) > 0 {
		chunk := keys
		if len(chunk) > fetchRawChunk {
			chunk = keys[:fetchRawChunk]
		}
		keys = keys[len(chunk):]
		vals, found, err := n.client().MGetCtx(ctx, chunk...)
		if err != nil {
			return nil, err
		}
		for i, k := range chunk {
			if found[i] {
				out[k] = vals[i]
			}
		}
	}
	return out, nil
}

// pushRepair version-conditionally writes one key's bytes to dst,
// counting it only if dst is actually a replica of the key under the
// current placement (a node can legitimately hold keys it no longer
// replicates — vacated copies awaiting cleanup — and those must not be
// spread further) and the write applied.
func (c *Cluster) pushRepair(ctx context.Context, dst *node, key, raw string) bool {
	if !c.replicaFor(key, dst.name) {
		return false
	}
	code, err := dst.client().SetVCtx(ctx, key, raw)
	if err != nil || !sockets.SetVAppliedCode(code) {
		return false
	}
	c.aeKeysRepaired.Add(1)
	c.aeBytesMoved.Add(int64(len(key) + len(raw)))
	return true
}

// replicaFor reports whether the named node is one of key's replicas
// under the placement every other path uses — the pre-change ring
// while a migration window is open.
func (c *Cluster) replicaFor(key, name string) bool {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	ring := c.ring
	if c.prevRing != nil {
		ring = c.prevRing
	}
	for _, n := range ring.NodesFor(key, c.cfg.Replicas) {
		if n == name {
			return true
		}
	}
	return false
}

// toSpans converts merkle bucket ranges into wire spans.
func toSpans(ranges []merkle.Range) []wire.Span {
	spans := make([]wire.Span, len(ranges))
	for i, r := range ranges {
		spans[i] = wire.Span{Lo: uint32(r.Lo), Hi: uint32(r.Hi)}
	}
	return spans
}

// ReadRepairs reports how many stale replica copies quorum reads have
// rewritten.
func (c *Cluster) ReadRepairs() int64 { return c.readRepairs.Load() }

// AntiEntropyRepaired reports how many key copies anti-entropy passes
// have pushed to a diverged replica.
func (c *Cluster) AntiEntropyRepaired() int64 { return c.aeKeysRepaired.Load() }

// AntiEntropyBytes reports the approximate repair payload volume —
// key plus encoded value bytes for every applied repair.
func (c *Cluster) AntiEntropyBytes() int64 { return c.aeBytesMoved.Load() }
