package cluster

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/sockets"
)

// Counters exports the cluster-wide counters as a metrics.CounterSet:
// request totals, quorum failures, hinted-handoff traffic, failure-
// detector transitions, migration volume, and the WAL group commit's
// appends and fsyncs (their ratio is records per fsync).
func (c *Cluster) Counters() *metrics.CounterSet {
	cs := &metrics.CounterSet{}
	cs.Add("cluster.puts", float64(c.puts.Load()))
	cs.Add("cluster.gets", float64(c.gets.Load()))
	cs.Add("cluster.dels", float64(c.dels.Load()))
	cs.Add("cluster.quorum-failures", float64(c.quorumFailures.Load()))
	cs.Add("cluster.ops-canceled", float64(c.opsCanceled.Load()))
	cs.Add("cluster.hinted-writes", float64(c.hintedWrites.Load()))
	cs.Add("cluster.hints-replayed", float64(c.hintsReplayed.Load()))
	cs.Add("hints.expired", float64(c.hintsExpired.Load()))
	cs.Add("hints.concurrent", float64(c.hintsConcurrent.Load()))
	cs.Add("readrepair.writes", float64(c.readRepairs.Load()))
	cs.Add("antientropy.syncs", float64(c.aeSyncs.Load()))
	cs.Add("antientropy.ranges", float64(c.aeRanges.Load()))
	cs.Add("antientropy.keys-repaired", float64(c.aeKeysRepaired.Load()))
	cs.Add("antientropy.bytes", float64(c.aeBytesMoved.Load()))
	cs.Add("antientropy.streams", float64(c.aeStreams.Load()))
	cs.Add("antientropy.stream-bytes", float64(c.aeStreamBytes.Load()))
	cs.Add("cluster.down-events", float64(c.downEvents.Load()))
	cs.Add("cluster.up-events", float64(c.upEvents.Load()))
	cs.Add("cluster.keys-migrated", float64(c.keysMigrated.Load()))
	cs.Add("cluster.ring-moves", float64(c.Moves()))
	cs.Add("cluster.sheds", float64(c.Sheds()))
	// Summed like Sheds: safe for dead nodes, and a floor under churn.
	var appends, syncs int64
	for _, n := range c.nodeList() {
		a, s := n.server().WALStats()
		appends += a
		syncs += s
	}
	cs.Add("wal.appends", float64(appends))
	cs.Add("wal.syncs", float64(syncs))
	if c.cache != nil {
		cs.Add("cache.hits", float64(c.cache.hits.Load()))
		cs.Add("cache.misses", float64(c.cache.misses.Load()))
		cs.Add("cache.admissions", float64(c.cache.admissions.Load()))
		cs.Add("cache.write-throughs", float64(c.cache.writeThrus.Load()))
		cs.Add("cache.expiries", float64(c.cache.expiries.Load()))
		cs.Add("cache.evictions", float64(c.cache.evictions.Load()))
	}
	return cs
}

// CacheHits and CacheMisses expose the hot-key cache counters (0 when
// the cache is disabled) — what the benches use to report hit rate.
func (c *Cluster) CacheHits() int64   { return c.cache.Hits() }
func (c *Cluster) CacheMisses() int64 { return c.cache.Misses() }

// Sheds sums every node server's admission-control shed count. Safe
// for dead nodes (the counters are atomics that survive server Close);
// counts from pre-kill incarnations are lost with the old server, so
// this is a floor under churn.
func (c *Cluster) Sheds() int64 {
	var total int64
	for _, n := range c.nodeList() {
		total += n.server().Shed()
	}
	return total
}

// nodeList snapshots the nodes in ring-join order.
func (c *Cluster) nodeList() []*node {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	nodes := make([]*node, 0, len(c.order))
	for _, name := range c.order {
		nodes = append(nodes, c.nodes[name])
	}
	return nodes
}

// PoolCounters sums the client-side sockets.Pool counters across every
// node's pool: requests, attempts, retries, failed attempts, and
// injected FailConn faults. Reading is safe even for dead nodes — the
// counters are plain atomics that survive pool Close.
func (c *Cluster) PoolCounters() *metrics.CounterSet {
	nodes := c.nodeList()

	sum := &metrics.CounterSet{}
	for _, n := range nodes {
		sum.Merge(n.client().Counters())
	}
	return sum
}

// Report renders the cluster health table: one row per node (state,
// server-side request/error counts, latency percentiles, stored keys —
// replicas and parked hints included) followed by the cluster counters.
func (c *Cluster) Report() string {
	nodes := c.nodeList()

	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-21s %-5s %9s %7s %10s %10s %10s %6s %6s\n",
		"node", "addr", "state", "requests", "errors", "p50", "p99", "p999", "shed", "keys")
	for _, n := range nodes {
		state := "up"
		if n.killed.Load() {
			state = "dead"
		} else if n.down.Load() {
			state = "down"
		}
		srv := n.server()
		st := srv.Stats()
		h := srv.Latency()
		keys := "-"
		if state == "up" {
			if k, err := n.client().Count(); err == nil {
				keys = fmt.Sprintf("%d", k)
			}
		}
		fmt.Fprintf(&b, "%-8s %-21s %-5s %9d %7d %10v %10v %10v %6d %6s\n",
			n.name, n.address(), state, st.Requests, st.Errors,
			h.Quantile(0.50).Round(time.Microsecond), h.Quantile(0.99).Round(time.Microsecond),
			h.Quantile(0.999).Round(time.Microsecond), srv.Shed(), keys)
	}

	// Per-verb tail table: each verb's histograms merged across nodes,
	// so a hot verb's overload tail (p999) is visible even when the
	// aggregate latency line looks healthy.
	var verbLines []string
	for _, verb := range sockets.Verbs() {
		merged := metrics.NewHistogram()
		for _, n := range nodes {
			if h := n.server().VerbLatency(verb); h != nil {
				merged.Merge(h)
			}
		}
		if merged.Count() == 0 {
			continue
		}
		verbLines = append(verbLines, fmt.Sprintf("%-6s %9d %10v %10v %10v %10v",
			verb, merged.Count(),
			merged.Quantile(0.50).Round(time.Microsecond), merged.Quantile(0.99).Round(time.Microsecond),
			merged.Quantile(0.999).Round(time.Microsecond), merged.Max().Round(time.Microsecond)))
	}
	if len(verbLines) > 0 {
		fmt.Fprintf(&b, "\n%-6s %9s %10s %10s %10s %10s\n", "verb", "n", "p50", "p99", "p999", "max")
		for _, line := range verbLines {
			b.WriteString(line)
			b.WriteString("\n")
		}
	}

	b.WriteString("\n")
	b.WriteString(c.Counters().String())
	return b.String()
}
