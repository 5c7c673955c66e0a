package cluster

import (
	"context"
	"fmt"
	"strings"
	"unicode"

	"repro/internal/db"
	"repro/internal/merkle"
	"repro/internal/sockets"
	"repro/internal/version"
	"repro/internal/wal"
)

// Topology changes run in three phases so quorum intersection never
// breaks across the change:
//
//  1. Window open (under topoMu): the pre-change ring is snapshotted
//     into prevRing and placement keeps quorums on it; concurrent
//     writes double-write to the new ring's replicas and mark their
//     keys dirty. Nothing per key runs here.
//  2. Discover and copy (concurrent with traffic): the old ring's live
//     nodes are paged through SCAN to find every stored key whose
//     replica set changed, whoever wrote it. Each moved key's newest
//     version — the winning version vector across all live old
//     replicas, so a quorum-aborted laggard can never be mistaken for
//     the truth — is copied to its new homes. A write that lands after
//     the scan passed its key is dirty, so phase 3 covers it.
//  3. Cutover (under topoMu, in-flight ops drained): every dirty key
//     whose replica set differs between prevRing and the new ring is
//     re-copied, then the window drops and placement flips to the new
//     ring atomically. Only now are vacated copies deleted and (for
//     Leave) the departing node shut down.
//
// The write pause in phase 3 lasts only as long as the dirty re-copy —
// the price of reads staying quorum-consistent through the change.

// move is one key whose replica set changed on a topology change.
type move struct {
	key      string
	old, new []string
}

// Join adds a fresh node to the ring and migrates the keys whose
// replica sets now include it — the ~K/n arc move, fanned out on the
// sched pool. The name must be unique, non-empty, and free of
// whitespace, '~' (it appears inside hint keys), and control bytes (so
// no name can begin with the version stamp's magic byte — see
// internal/version).
func (c *Cluster) Join(name string) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if name == "" || strings.ContainsAny(name, " ~") || strings.ContainsFunc(name, unicode.IsControl) {
		return fmt.Errorf("cluster: bad node name %q", name)
	}
	c.topoChange.Lock()
	defer c.topoChange.Unlock()
	fresh, err := c.startNode(name)
	if err != nil {
		return err
	}
	c.topoMu.Lock()
	if _, exists := c.nodes[name]; exists {
		c.topoMu.Unlock()
		fresh.client().Close()
		fresh.server().Close()
		return fmt.Errorf("cluster: node %q already present", name)
	}
	prev, err := c.snapshotRingLocked()
	if err != nil {
		c.topoMu.Unlock()
		fresh.client().Close()
		fresh.server().Close()
		return err
	}
	prevOrder := append([]string(nil), c.order...)
	c.ring.AddNode(name) //nolint:errcheck // uniqueness checked above
	c.nodes[name] = fresh
	c.order = append(c.order, name)
	c.prevRing, c.prevOrder, c.dirty = prev, prevOrder, make(map[string]struct{})
	byName := c.nodeSnapshotLocked()
	c.topoMu.Unlock()

	moves, err := c.relocate(prev, prevOrder, byName, "")
	c.emit(EventJoin, name, fmt.Sprintf("%d keys moved", len(moves)))
	return err
}

// Leave removes a node gracefully: the ring shrinks, the keys it owned
// migrate to their new replicas, and through the whole window the
// leaving node keeps serving — it is still a quorum member of the old
// placement and a copy source — until the cutover drops it.
func (c *Cluster) Leave(name string) error {
	if c.closed.Load() {
		return ErrClosed
	}
	c.topoChange.Lock()
	defer c.topoChange.Unlock()
	c.topoMu.Lock()
	leaving, ok := c.nodes[name]
	if !ok {
		c.topoMu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	if len(c.order)-1 < c.cfg.Replicas {
		c.topoMu.Unlock()
		return fmt.Errorf("cluster: cannot drop below %d nodes (%d replicas per key)", c.cfg.Replicas, c.cfg.Replicas)
	}
	prev, err := c.snapshotRingLocked()
	if err != nil {
		c.topoMu.Unlock()
		return err
	}
	prevOrder := append([]string(nil), c.order...)
	if err := c.ring.RemoveNode(name); err != nil {
		c.topoMu.Unlock()
		return err
	}
	// c.nodes keeps the leaving member through the window (the old
	// placement still routes to it); only order — the new topology —
	// drops it now.
	for i, n := range c.order {
		if n == name {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.prevRing, c.prevOrder, c.dirty = prev, prevOrder, make(map[string]struct{})
	byName := c.nodeSnapshotLocked() // includes the leaving node as a source
	c.topoMu.Unlock()

	moves, err := c.relocate(prev, prevOrder, byName, name)
	leaving.client().Close()
	leaving.server().Close()
	c.emit(EventLeave, name, fmt.Sprintf("%d keys moved", len(moves)))
	return err
}

// snapshotRingLocked clones the current topology into a fresh ring for
// use as the migration window's placement authority.
func (c *Cluster) snapshotRingLocked() (*db.DHT, error) {
	prev, err := db.NewDHT(c.cfg.VNodes)
	if err != nil {
		return nil, err
	}
	for _, name := range c.order {
		if err := prev.AddNode(name); err != nil {
			return nil, err
		}
	}
	return prev, nil
}

// relocate runs phases 2 and 3 of an open migration window: it finds
// the moved keys, copies them, cuts over, and deletes the vacated
// copies. It returns the moved keys the scan found.
func (c *Cluster) relocate(prev *db.DHT, prevOrder []string, byName map[string]*node, dropNode string) ([]move, error) {
	moves, err := c.findMoves(c.ctx, prev, prevOrder, byName)
	if merr := c.migrate(c.ctx, moves, byName); err == nil {
		err = merr
	}
	late := c.cutover(byName, dropNode)
	c.cleanupVacated(append(moves, late...), byName)
	return moves, err
}

// findMoves pages the old ring's live nodes through SCAN and returns
// every stored key whose replica set the change altered, adding the
// ones whose owner (first replica) changed to c.moves. Parked hints sit
// above the scanned range and never move.
func (c *Cluster) findMoves(ctx context.Context, prev *db.DHT, prevOrder []string, byName map[string]*node) ([]move, error) {
	var srcs []*node
	for _, name := range prevOrder {
		if n := byName[name]; n != nil && !n.down.Load() {
			srcs = append(srcs, n)
		}
	}
	var out []move
	err := scanKeys(ctx, srcs, 0, merkle.Buckets, aeBatch, func(keys []string) bool {
		for _, key := range keys {
			if m, ok := c.moveOf(prev, key); ok {
				out = append(out, m)
				if m.old[0] != m.new[0] {
					c.moves.Add(1)
				}
			}
		}
		return true
	})
	return out, err
}

// moveOf reports key's replica sets under prev and under the current
// ring, and whether they differ. Only the goroutine running the
// topology change calls it, and the ring changes only under that
// change, so it reads the ring without topoMu.
func (c *Cluster) moveOf(prev *db.DHT, key string) (move, bool) {
	m := move{key: key, old: prev.NodesFor(key, c.cfg.Replicas), new: c.ring.NodesFor(key, c.cfg.Replicas)}
	return m, !sameNodes(m.old, m.new)
}

// cutover closes the migration window. Under the exclusive topology
// lock new operations block; the in-flight ones are drained, every
// dirty key that moved is re-copied from its old replicas (newest
// version across all live sources), and placement flips to the new
// ring. dropNode, when non-empty, is the leaving member to remove from
// the node table inside the same critical section. It returns the
// dirty keys that moved, so their vacated copies can go too.
func (c *Cluster) cutover(byName map[string]*node, dropNode string) []move {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	c.inflight.Wait()
	var late []move
	for key := range c.dirty {
		if m, ok := c.moveOf(c.prevRing, key); ok {
			late = append(late, m)
		}
		// Keys whose replica set did not change: the normal write path
		// covered them.
	}
	// Version-gated like the bulk copy: that phase may have raced a
	// double-write onto a destination, and the re-copy must never regress
	// it to something older. A failed batch is repaired by anti-entropy.
	c.copyMoves(c.ctx, late, byName)
	c.prevRing, c.prevOrder, c.dirty = nil, nil, nil
	if dropNode != "" {
		delete(c.nodes, dropNode)
	}
	return late
}

// newestCopies bulk-reads a set of keys (each with its own source
// replica list) and resolves every key's winning raw value locally —
// causal dominance first, deterministic tiebreak for concurrent
// histories. Consulting every live source guards against trusting a
// copy a quorum-abort cancellation left behind; reading each source in
// fetchRaw's MGET chunks instead of one GET per (key, source) is what
// keeps a migration's read amplification at O(sources) round trips per
// chunk rather than O(keys × sources). Keys with no live source or no
// decodable copy are simply absent from the result.
func (c *Cluster) newestCopies(ctx context.Context, wants map[string][]string, byName map[string]*node) map[string]string {
	keysBySrc := make(map[string][]string)
	for key, srcs := range wants {
		for _, src := range srcs {
			if n := byName[src]; n != nil && !n.down.Load() {
				keysBySrc[src] = append(keysBySrc[src], key)
			}
		}
	}
	type candidate struct {
		ver version.Header
		raw string
	}
	best := make(map[string]candidate, len(wants))
	for src, keys := range keysBySrc {
		if ctx.Err() != nil {
			break
		}
		vals, err := c.fetchRaw(ctx, byName[src], keys)
		if err != nil {
			continue // a dead source just contributes nothing
		}
		for key, raw := range vals {
			ver, _, err := version.ParseHeader(raw)
			if err != nil {
				continue
			}
			if b, ok := best[key]; !ok || ver.Newer(b.ver) {
				best[key] = candidate{ver: ver, raw: raw}
			}
		}
	}
	out := make(map[string]string, len(best))
	for key, b := range best {
		out[key] = b.raw
	}
	return out
}

// nodeSnapshotLocked captures the name -> node table for use off-lock.
func (c *Cluster) nodeSnapshotLocked() map[string]*node {
	out := make(map[string]*node, len(c.nodes))
	for name, n := range c.nodes {
		out[name] = n
	}
	return out
}

func sameNodes(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subtract returns the names in a but not in b.
func subtract(a, b []string) []string {
	var out []string
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			out = append(out, x)
		}
	}
	return out
}

// migrateChunk is how many moved keys one sched task gathers before
// flushing: large enough that a destination receives a meaty batch,
// small enough that big migrations still spread across workers.
const migrateChunk = 32

// migrate copies each moved key to its new homes, in chunks fanned out
// on the sched pool. Each copy carries the newest version across all
// live old replicas. Within a chunk the copies are gathered per
// destination and shipped as one version-gated batch (see shipCopies)
// instead of a round trip per key. The fan-out rides ParallelForCtx on
// the cluster context: Close stops seeding chunks and aborts the
// in-flight copies, so a shutdown never waits out a large migration.
// Vacated copies are NOT deleted here — reads still quorum on the old
// placement until the cutover.
func (c *Cluster) migrate(ctx context.Context, moves []move, byName map[string]*node) error {
	if len(moves) == 0 {
		return nil
	}
	return c.sched.ParallelForCtx(ctx, len(moves), migrateChunk, func(lo, hi int) {
		c.copyMoves(ctx, moves[lo:hi], byName)
	})
}

// copyMoves copies each move's key, at its newest version, to its new
// homes. One bulk read per live source covers all the moves; the
// winning version per key is resolved locally from the answers.
func (c *Cluster) copyMoves(ctx context.Context, moves []move, byName map[string]*node) {
	wants := make(map[string][]string, len(moves))
	for _, m := range moves {
		wants[m.key] = m.old
	}
	raws := c.newestCopies(ctx, wants, byName)
	copies := make(copyBatches)
	for _, m := range moves {
		if raw, ok := raws[m.key]; ok { // else never written, or no live source
			copies.add(m, raw, byName)
		}
	}
	c.shipCopies(ctx, copies, byName)
}

// copyBatchBytes bounds one batch of copies, so a batch of big values
// still fits a wire frame.
const copyBatchBytes = 256 << 10

// copyBatches gathers a topology change's copies per destination node,
// framed as SYNCWAL stream records (the format WAL streaming ships)
// and cut into batches of about copyBatchBytes.
type copyBatches map[string][][]byte

// add queues m's key's winning copy raw for each of m's new replicas
// that is live and did not already replicate the key.
func (b copyBatches) add(m move, raw string, byName map[string]*node) {
	rec := &wal.Record{Kind: wal.KindSet, Key: m.key, Value: raw}
	for _, dst := range subtract(m.new, m.old) {
		if n := byName[dst]; n == nil || n.down.Load() {
			continue
		}
		batches := b[dst]
		if last := len(batches) - 1; last < 0 || len(batches[last])+len(m.key)+len(raw) > copyBatchBytes {
			batches = append(batches, nil)
		}
		last := len(batches) - 1
		batches[last] = wal.AppendStreamRecord(batches[last], rec)
		b[dst] = batches
	}
}

// shipCopies sends every queued batch to its destination through
// SYNCWAL's apply mode, which runs each record through the server's
// SETV compare: a copy no newer than what the destination holds changes
// nothing, so migration cannot regress a key a concurrent write or
// double-write already advanced. The receiver needs no WAL. Applied
// copies count toward keys-migrated; a failed batch is left to
// anti-entropy.
func (c *Cluster) shipCopies(ctx context.Context, b copyBatches, byName map[string]*node) {
	for dst, batches := range b {
		for _, batch := range batches {
			if ctx.Err() != nil {
				return
			}
			if n, err := byName[dst].client().SyncWALApplyCtx(ctx, batch); err == nil {
				c.keysMigrated.Add(int64(n))
			}
		}
	}
}

// cleanupVacated bulk-deletes the copies the cutover left behind on
// nodes that no longer replicate a key, one MDEL per node. The deletes
// carry no stamp: the node is no longer a replica of the key, so any
// copy there is garbage, however new.
func (c *Cluster) cleanupVacated(moves []move, byName map[string]*node) {
	dels := make(map[string][]sockets.KV)
	for _, m := range moves {
		for _, g := range subtract(m.old, m.new) {
			dels[g] = append(dels[g], sockets.KV{Key: m.key})
		}
	}
	for name, keys := range dels {
		if n := byName[name]; n != nil && !n.down.Load() {
			n.client().MDelCtx(c.ctx, keys) //nolint:errcheck // vacated copies; best effort
		}
	}
}
