package cluster

import (
	"context"
	"strings"
	"time"

	"repro/internal/merkle"
	"repro/internal/sockets"
	"repro/internal/version"
)

// A hinted handoff is parked as the write's stamped bytes under
// hint~<dest>~<key> on a fallback node. The stamp's clock is the hint's
// birth time, which the TTL sweep ages against. Without a TTL, a
// permanently dead destination grows the hint~ keyspace forever: every
// write that misses it parks another hint that nothing will ever
// consume.

// hintExpired reports whether a hint stamped with h has outlived the
// configured TTL (negative TTL = never).
func (c *Cluster) hintExpired(h version.Header) bool {
	return c.cfg.HintTTL > 0 && time.Since(time.Unix(0, h.Clock)) >= c.cfg.HintTTL
}

// HintsExpired reports how many parked hints the TTL sweep (or an
// expiry check during replay) has dropped.
func (c *Cluster) HintsExpired() int64 { return c.hintsExpired.Load() }

// zeroStamp is the stamp of no write at all: every stamped value is
// newer, and an unstamped one is not.
var zeroStamp = version.Encode(version.Version{}, "")

// hintScanWidth is how many buckets one hint-discovery SCAN covers:
// the hint half of a holder's bucket space is paged in four SCANs. A
// page lists only hints, however many other keys the holder stores.
const hintScanWidth = merkle.Buckets / 4

// scanHints walks holder's parked hints whose keys start with prefix.
// The holder's server files hints in SCAN buckets [merkle.Buckets,
// 2·merkle.Buckets), so paging that range lists exactly its hints. Each
// page is read in fetchRawChunk-sized chunks, so neither a request nor
// a reply outgrows a wire frame however many hints are parked. Each
// chunk is read with one MGET; visit sees every hint still present and
// reports whether to consume it, and the chunk's consumed hints go in
// one MDEL. Each consumed hint is deleted with the stamp just read, so
// a newer hint parked under the same key between the read and the
// delete survives for the next sweep. A hint whose bytes carry no stamp
// (a hint parked in an older format, say) can never replay, so it is
// consumed without a visit, with the zero stamp that every stamped hint
// is newer than. Returns how many hints were deleted. The scan stops at
// the first failed SCAN or read, or once ctx is done.
func (c *Cluster) scanHints(ctx context.Context, holder *node, prefix string, visit func(hk string, h version.Header, raw string) bool) int {
	deleted := 0
	scanKeys(ctx, []*node{holder}, merkle.Buckets, 2*merkle.Buckets, hintScanWidth, func(keys []string) bool { //nolint:errcheck // a stopped scan leaves the rest parked for the next sweep
		hints := keys[:0]
		for _, k := range keys {
			if strings.HasPrefix(k, prefix) {
				hints = append(hints, k)
			}
		}
		for len(hints) > 0 && ctx.Err() == nil {
			chunk := hints[:min(len(hints), fetchRawChunk)]
			hints = hints[len(chunk):]
			vals, err := c.fetchRaw(ctx, holder, chunk)
			if err != nil {
				return false
			}
			var consumed []sockets.KV
			for _, hk := range chunk {
				raw, ok := vals[hk]
				if !ok {
					continue // consumed by a concurrent scan
				}
				h, payload, err := version.ParseHeader(raw)
				if err != nil {
					consumed = append(consumed, sockets.KV{Key: hk, Value: zeroStamp})
				} else if visit(hk, h, raw) {
					consumed = append(consumed, sockets.KV{Key: hk, Value: raw[:len(raw)-len(payload)]})
				}
			}
			if len(consumed) > 0 {
				if n, err := holder.client().MDelCtx(ctx, consumed); err == nil {
					deleted += n
				}
			}
		}
		return true
	})
	return deleted
}

// sweepExpiredHints walks every live node's parked hints and deletes
// the ones older than HintTTL, whatever their destination — including
// hints for nodes that are down or long dead, which the replay path
// (it only runs when a destination comes back) would never visit.
// Dropping an expired hint abandons that hint's contribution to a past
// sloppy quorum; the TTL is the explicit bound on how long the cluster
// keeps paying memory for that promise.
func (c *Cluster) sweepExpiredHints() {
	if c.cfg.HintTTL <= 0 {
		return
	}
	c.topoMu.RLock()
	holders := make([]*node, 0, len(c.order))
	for _, name := range c.order {
		holders = append(holders, c.nodes[name])
	}
	c.topoMu.RUnlock()

	for _, holder := range holders {
		if c.ctx.Err() != nil {
			break
		}
		if holder.down.Load() || holder.killed.Load() {
			continue
		}
		expired := c.scanHints(c.ctx, holder, hintMark, func(_ string, h version.Header, _ string) bool {
			return c.hintExpired(h)
		})
		c.hintsExpired.Add(int64(expired))
	}
}
