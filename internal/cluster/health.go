package cluster

import (
	"context"
	"sync"
	"time"

	"repro/internal/sockets"
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
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.Probe()
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
// marks it down (reads and writes route around it, and every write it
// misses counts against its quorum); a successful probe of a down node
// runs its catch-up and then marks it up again. Reports whether the
// node answered. A probe cut short by cluster shutdown changes no
// state.
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
		n.upMu.Lock()
		defer n.upMu.Unlock()
		if !n.down.Load() {
			return true // a concurrent probe caught it up
		}
		// Catch up before flipping up, so the node does not serve reads
		// from a store that missed the writes made while it was down.
		c.catchUp(n)
		if n.epoch.Load() != epoch {
			return false // node churned during the catch-up
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
