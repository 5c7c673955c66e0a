package cluster

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/sockets"
	"repro/internal/version"
)

// heartbeatLoop is the failure detector: every HeartbeatInterval it
// probes all members and flips their up/down state. The cluster context
// ends the loop — and, because every probe runs under that context,
// Close interrupts an in-progress heartbeat wait instead of sitting out
// the rest of the current HeartbeatTimeout.
func (c *Cluster) heartbeatLoop() {
	defer c.hbWG.Done()
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	// The hint-TTL sweep rides the same loop on a slower ticker: often
	// enough that an expired hint outlives its TTL by at most ~TTL/4,
	// rare enough that the hint SCANs cost the steady state nothing.
	var sweep <-chan time.Time
	if c.cfg.HintTTL > 0 {
		ivl := c.cfg.HintTTL / 4
		if ivl < c.cfg.HeartbeatInterval {
			ivl = c.cfg.HeartbeatInterval
		}
		st := time.NewTicker(ivl)
		defer st.Stop()
		sweep = st.C
	}
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.Probe()
		case <-sweep:
			c.sweepExpiredHints()
		}
	}
}

// Probe runs one synchronous failure-detection sweep over every node —
// what the heartbeat loop does on each tick, exposed so tests and
// benches can make detection deterministic instead of sleeping.
func (c *Cluster) Probe() {
	nodes := c.nodeList()
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			c.probeNode(n)
		}(n)
	}
	wg.Wait()
}

// probeNode pings one node and applies the state transition: silence
// marks it down (writes start hinting, reads route around it); a
// successful probe of a down node marks it up again and replays any
// hinted handoffs parked for it. Reports whether the node answered. A
// probe cut short by cluster shutdown changes no state.
//
// The verdict only applies if the node is still the incarnation the
// probe started against: Kill and Restart bump the node epoch, and a
// stale probe — its connection cut mid-ping by Kill, or its target port
// already replaced by Restart — must not overwrite the fresh
// incarnation's state. Without the guard, a Restart racing an in-flight
// probe left the recovered node spuriously marked down until the next
// heartbeat swept by.
func (c *Cluster) probeNode(n *node) bool {
	epoch := n.epoch.Load()
	err := probeAddr(c.ctx, n.address(), c.cfg.HeartbeatTimeout)
	if c.ctx.Err() != nil {
		return false // shutting down: an interrupted probe proves nothing
	}
	if n.epoch.Load() != epoch {
		return false // killed or restarted mid-probe: verdict is about a dead incarnation
	}
	if err != nil {
		if !n.down.Swap(true) {
			c.downEvents.Add(1)
			c.emit(EventDown, n.name, "")
		}
		return false
	}
	if n.down.Load() {
		// Replay before flipping up so a write racing the transition
		// still hints (replay is version-conditional, so re-applying is
		// harmless).
		c.replayHints(c.ctx, n)
		if n.epoch.Load() != epoch {
			return false // node churned during the replay sweep
		}
		n.down.Store(false)
		c.upEvents.Add(1)
		c.emit(EventUp, n.name, "")
	}
	return true
}

// probeAddr round-trips one PING on a dedicated connection, off to the
// side of the request pools, so a wedged pool cannot mask a live node
// (or vice versa). The wait is min(timeout, ctx): cluster shutdown
// interrupts a probe mid-dial or mid-read.
func probeAddr(ctx context.Context, addr string, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	cl, err := sockets.DialCtx(ctx, addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	return cl.PingCtx(ctx)
}

// replayHints scans the other members for hinted handoffs parked for
// dest, applies every hint that is newer than what dest holds, and
// deletes the consumed hints. Returns how many hints were applied. The
// sweep aborts between (and inside) per-node scans once ctx is done.
func (c *Cluster) replayHints(ctx context.Context, dest *node) int {
	prefix := hintMark + dest.name + "~"
	c.topoMu.RLock()
	holders := make([]*node, 0, len(c.order))
	for _, name := range c.order {
		if n := c.nodes[name]; n != dest {
			holders = append(holders, n)
		}
	}
	c.topoMu.RUnlock()

	applied, expired := 0, 0
	for _, holder := range holders {
		if ctx.Err() != nil {
			break
		}
		if holder.down.Load() {
			continue
		}
		c.scanHints(ctx, holder, prefix, func(hk string, h version.Header, raw string) bool {
			if c.hintExpired(h) {
				// Past the TTL: the sweep would have dropped it; finding it
				// here first changes nothing.
				expired++
				return true
			}
			switch c.applyHint(ctx, dest, strings.TrimPrefix(hk, prefix), raw) {
			case hintApplied:
				applied++
				return true
			case hintStale:
				// Older than what dest already holds: dead weight, delete
				// without applying.
				return true
			}
			// Transport failure (dest may have died again mid-replay): the
			// hint still counts toward a past write's sloppy quorum, so it
			// MUST survive for the next sweep — consuming it here would
			// silently drop an acknowledged write.
			return false
		})
	}
	c.hintsExpired.Add(int64(expired))
	c.hintsReplayed.Add(int64(applied))
	if applied > 0 {
		c.emit(EventHintReplay, dest.name, strconv.Itoa(applied)+" hints")
	}
	return applied
}

// hintOutcome classifies one hint's replay attempt.
type hintOutcome int

const (
	hintApplied hintOutcome = iota // written to the home node
	hintStale                      // home node already holds a version at least as new
	hintFailed                     // transport failure: keep the hint
)

// applyHint replays one hinted value onto its home node with a single
// version-conditional SETV: the node compares the hint's version vector
// against what it stores, under its own shard lock, and applies only if
// the hint wins. This replaces the seed's read-compare-write sequence,
// which had two defects the vectors expose: it was a TOCTOU race (the
// node could absorb a newer write between the GET and the SET), and its
// integer comparison `cur >= hint` silently dropped hints whose history
// was *concurrent* with the stored one — with vectors those compare
// incomparable, the deterministic tiebreak picks the same winner on
// every replica, and either way the outcome is counted
// (hints.concurrent) instead of being misread as plain staleness.
func (c *Cluster) applyHint(ctx context.Context, dest *node, key, raw string) hintOutcome {
	code, err := dest.client().SetVCtx(ctx, key, raw)
	if err != nil {
		return hintFailed
	}
	switch code {
	case sockets.SetVAppliedConcurrent:
		c.hintsConcurrent.Add(1)
		return hintApplied
	case sockets.SetVStaleConcurrent:
		c.hintsConcurrent.Add(1)
		return hintStale
	case sockets.SetVApplied:
		return hintApplied
	}
	return hintStale
}
