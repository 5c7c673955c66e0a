// Package cluster is the distributed-storage capstone made real: a
// replicated key-value cluster of N live sockets.Server nodes on real
// TCP ports, routed by a smart client. It composes the layers the
// courses build one by one — the consistent-hash ring with virtual
// nodes (db.DHT.NodesFor) picks R replicas per key, writes and reads go
// through per-node sockets.Pool clients under strict W/R quorums (W+R >
// N, and only the key's own replicas count, so read and write sets
// intersect), heartbeat probes mark silent nodes down and route around
// them, a returning replica catches up from its live peers through
// anti-entropy before it serves again, and node join/leave migrates
// only the ~K/n keys whose arcs moved, fanned out in parallel on a
// sched.Pool.
//
// Values carry a per-key version vector (internal/version) stamped by
// the write's coordinator, so quorum reads resolve divergent replicas
// causally — a replica that merely missed writes is Dominated, and only
// genuinely concurrent histories fall back to the deterministic
// wall-clock tiebreak. Reads that observe stale replicas repair them in
// the background (read repair), and a Merkle-tree anti-entropy loop
// (antientropy.go) lets replicas that diverged silently — a replica
// that was down or unreachable for some writes — find and exchange
// exactly the keys that differ.
// The db.DHT supplies the ring geometry, and Moves() counts the stored
// keys whose owner each topology change moved — the same count a
// db.DHT holding those keys reports — certifying the minimal-movement
// property.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/sched"
	"repro/internal/sockets"
	"repro/internal/version"
)

// Config parameterizes a Cluster. The zero value gets the defaults
// noted per field.
type Config struct {
	// Nodes is the initial node count (default 3).
	Nodes int
	// Replicas is how many distinct nodes hold each key (default
	// min(3, Nodes)).
	Replicas int
	// WriteQuorum (W) and ReadQuorum (R) are how many replica acks a
	// write/read needs. Defaults are majorities (Replicas/2 + 1); New
	// rejects configurations without W+R > Replicas, the overlap that
	// makes a quorum read see the newest quorum write.
	WriteQuorum int
	ReadQuorum  int
	// VNodes is the virtual-node count per node on the ring (default 64).
	VNodes int
	// HeartbeatInterval is the probe period of the failure detector;
	// HeartbeatTimeout is the per-probe deadline after which a node is
	// declared down (defaults 50ms and 250ms).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// Workers sizes the sched.Pool that fans out key migration on
	// join/leave (default: runtime.NumCPU()).
	Workers int
	// PoolTimeout and PoolAttempts parameterize each node's sockets.Pool
	// client (defaults 500ms, 2 attempts).
	PoolTimeout  time.Duration
	PoolAttempts int
	// Deprecated: see sockets.Proto. Ignored — every inter-node pool
	// speaks the binary protocol.
	Proto sockets.Proto
	// DrainTimeout bounds how long a killed or closed node's server
	// waits for in-flight requests before hard-closing them (default 1s;
	// chaos tests shrink it so Kill is near-instant).
	DrainTimeout time.Duration

	// HotKeyCache enables the client-side hot-key read cache: a small
	// sharded LRU holding only keys whose observed read rate crosses
	// CacheHotThreshold, each entry leased for CacheLease. A cache hit
	// answers a Get without any replica round trip; the price is a
	// bounded staleness window — a cached read can lag a concurrent
	// write by strictly less than the lease (see cache.go and DESIGN.md
	// §7 for why the lease bounds it). Off by default: correctness
	// first, the flag is the experiment.
	HotKeyCache bool
	// CacheLease is the per-entry lease and therefore the staleness
	// bound (default 50ms).
	CacheLease time.Duration
	// CacheHotThreshold is how many quorum reads within one admission
	// window (cacheWindow) admit a key to the cache (default 4). 1
	// caches on first read.
	CacheHotThreshold int

	// MaxPending is each node server's admission bound: past this many
	// admitted-but-unanswered requests the node sheds new arrivals with
	// an overload response instead of queueing (sockets.ErrOverload on
	// the client after exhausted retries). 0 = no shedding (default).
	MaxPending int

	// Durable gives every node a write-ahead log (internal/wal): each
	// node fsyncs mutations — batched by the group committer — before
	// acking, Kill takes kill -9 semantics (Server.Crash: acked writes
	// survive on disk, unacked ones may vanish), and Restart recovers
	// the node's pre-crash state from its own log instead of coming
	// back empty. Off by default: the memory-only cluster is the
	// availability baseline the durability overhead is measured against.
	Durable bool
	// WALRoot is where durable nodes keep their logs, one subdirectory
	// per node name, reused across Restart. Empty with Durable set uses
	// a temporary directory that Close removes.
	WALRoot string
	// WALSegmentBytes passes through to each durable node's log segment
	// cap (default 4 MiB). Recovery and chaos tests shrink it so sealed
	// segments — the units scrubbing checks and SYNCWAL streams — appear
	// after a handful of writes.
	WALSegmentBytes int64
	// WALScrubInterval, when positive on a durable cluster, runs each
	// node's background segment scrub at this period: sealed segments and
	// the snapshot are re-read and CRC-checked, and the first corruption
	// found surfaces as an EventWALCorrupt on the EventTap. Zero disables
	// scrubbing.
	WALScrubInterval time.Duration
	// SyncStreamThreshold is the divergence ratio (divergent Merkle
	// leaves / total buckets) at or above which an anti-entropy pair sync
	// switches from key-by-key span repair to WAL streaming: the fuller
	// node's whole log — snapshot plus segments — ships as raw CRC-framed
	// chunks (SYNCWAL) and the receiver folds them in version-
	// conditionally. Near-total divergence (a node restarted after disk
	// loss) is where per-key scans are slowest and streaming shines;
	// light divergence stays on the Merkle path, which moves only the
	// keys that differ. 0 means the 0.25 default; negative disables
	// streaming. Streaming needs Durable.
	SyncStreamThreshold float64
	// AntiEntropyInterval, when positive, runs a background Merkle-tree
	// sync pass (SyncNow) over every live node pair at this period. Zero
	// leaves anti-entropy manual: tests and benches call SyncNow
	// directly so convergence is deterministic instead of slept-for.
	AntiEntropyInterval time.Duration

	// ServerPreHandle, when non-nil, supplies each named node's
	// sockets.ServerConfig.PreHandle: the fault-injection surface that
	// makes a replica slow (the quorum-abort laggard) or stalls its PING
	// responses (a heartbeat blackout). It is consulted again on Restart,
	// so an injected fault can outlive one server incarnation.
	ServerPreHandle func(name string) func(verb, key string) (stall func())
	// PoolFailConn, when non-nil, supplies each named node's client-pool
	// FailConn hook: connection drops injected on the request path.
	PoolFailConn func(name string) func(req, attempt int) bool
	// PoolPreAttempt, when non-nil, supplies each named node's client-
	// pool PreAttempt hook: client-side latency spikes, returned as the
	// delay to hold each attempt back by.
	PoolPreAttempt func(name string) func(attempt int) time.Duration
	// EventTap, when non-nil, observes lifecycle events (kills,
	// restarts, failure-detector transitions, catch-ups, topology
	// changes) with timestamps. Chaos checkers use the stream to excuse
	// unavailability the fault schedule itself caused. The tap is called
	// synchronously from cluster internals: keep it fast and never call
	// back into the cluster from it.
	EventTap func(Event)

	// AllowUnsafeQuorums skips the W+R > Replicas validation. A cluster
	// built this way loses the read-your-quorum-writes overlap and WILL
	// serve stale reads under concurrency — that is its only purpose:
	// the chaos linearizability checker's self-test runs one to prove
	// the checker catches the anomalies. Never set it otherwise.
	AllowUnsafeQuorums bool
}

// EventType labels a cluster lifecycle event.
type EventType string

// The lifecycle events delivered to Config.EventTap.
const (
	EventKill    EventType = "kill"     // Kill crash-stopped the node
	EventRestart EventType = "restart"  // Restart brought it back on a fresh port; Detail reports "recovered N keys" (N > 0 only for durable nodes, which replay their WAL)
	EventDown    EventType = "down"     // failure detector marked it down
	EventUp      EventType = "up"       // failure detector marked it up again
	EventCatchUp EventType = "catch-up" // a returning node's anti-entropy catch-up repaired keys; Detail reports "N keys"
	EventJoin    EventType = "join"     // node joined the ring
	EventLeave   EventType = "leave"    // node left the ring
	// EventWALCorrupt reports that a durable node's background scrub
	// found a corrupt frame in its own log; Detail carries the error,
	// which names the damaged file. Fired at most once per server
	// incarnation.
	EventWALCorrupt EventType = "wal-corrupt"
)

// Event is one timestamped cluster lifecycle transition.
type Event struct {
	Time time.Time
	Type EventType
	Node string
	// Detail carries event-specific context (e.g. the repaired-key count
	// of a catch-up, the moved-key count on a join).
	Detail string
}

// Errors the cluster operations return.
var (
	ErrClosed      = errors.New("cluster: closed")
	ErrNoQuorum    = errors.New("cluster: quorum not reached")
	ErrUnknownNode = errors.New("cluster: unknown node")
)

// node is one cluster member: a live server plus the pooled client the
// router uses to reach it. srv/pool/addr swap on Kill/Restart under mu;
// down is owned by the failure detector.
type node struct {
	name string

	mu   sync.Mutex
	srv  *sockets.Server
	pool *sockets.Pool
	addr string

	down   atomic.Bool
	killed atomic.Bool
	// upMu serializes down→up transitions: a probe that finds the node
	// down waits for one already running its catch-up, then finds the
	// node up and has nothing left to do.
	upMu sync.Mutex

	// epoch counts the node's lifetime transitions: Kill and Restart
	// each bump it. A heartbeat probe records the epoch it started
	// under and discards its verdict if the epoch moved while it was in
	// flight — a probe of the previous incarnation (its connection cut
	// by Kill, or its port already re-assigned by Restart) must not
	// overwrite the fresh incarnation's up/down state.
	epoch atomic.Int64
}

// client returns the node's current pooled client.
func (n *node) client() *sockets.Pool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pool
}

// address returns the node's current listen address.
func (n *node) address() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.addr
}

// server returns the node's current server (still readable for stats
// after a kill).
func (n *node) server() *sockets.Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv
}

// Cluster runs the nodes and routes requests to them.
type Cluster struct {
	cfg Config

	// topoMu guards the ring and the membership tables. Request paths,
	// writes included, hold it shared only to compute placement; all
	// network traffic happens outside it. Join and Leave hold it
	// exclusively, which excludes every writer, only to swap the ring
	// and to open and close the migration window. The ring is geometry
	// only: it stores no keys, and a topology change finds the keys to
	// move by paging the nodes through SCAN.
	//
	// keys maps each key this client wrote to the vector of its last
	// stamp — the causal history this client has stamped onto the key so
	// far. The next write bumps the coordinator's slot in that vector
	// under the key's stripe lock, so writes from this client to one key
	// always dominate their predecessors; concurrent (incomparable)
	// vectors only arise across clients or from injected divergence.
	topoMu sync.RWMutex
	ring   *db.DHT
	keys   keyTable
	nodes  map[string]*node
	order  []string     // join order, for stable iteration and reports
	moves  atomic.Int64 // stored keys whose owner a topology change moved

	// Migration-window state, guarded by topoMu. While prevRing is
	// non-nil a topology change is copying keys: quorum placement stays
	// on the pre-change ring (prevRing), so every quorum
	// keeps intersecting the quorums of earlier writes; writes
	// additionally double-write (best effort) to the next ring's new
	// replicas and land their key in dirty. The locked cutover re-copies
	// the dirty keys and drops the window — only then does placement see
	// the new ring. Without this, a read placed on the new ring could
	// miss a write the old ring's quorum acknowledged moments earlier.
	// Writers, holding topoMu shared, add to dirty under dirtyMu; the
	// topology change replaces and reads it holding topoMu exclusively.
	prevRing *db.DHT
	dirtyMu  sync.Mutex
	dirty    map[string]struct{}
	// inflight counts ops that have taken their placement and are still
	// fanning out; the cutover waits for them so its re-copy reads
	// final, not mid-write, state.
	inflight sync.WaitGroup
	// topoChange serializes Join/Leave end to end.
	topoChange sync.Mutex

	sched *sched.Pool

	// cache is the hot-key read cache; nil unless Config.HotKeyCache.
	// Every method is nil-safe, so call sites need no guard.
	cache *hotCache

	// ctx is the cluster lifetime: canceled by Close, it interrupts the
	// heartbeat loop mid-probe, aborts catch-up and key migration,
	// and bounds every background network wait.
	ctx    context.Context
	cancel context.CancelFunc
	hbWG   sync.WaitGroup
	closed atomic.Bool

	puts           atomic.Int64
	gets           atomic.Int64
	dels           atomic.Int64
	quorumFailures atomic.Int64
	opsCanceled    atomic.Int64
	downEvents     atomic.Int64
	upEvents       atomic.Int64
	keysMigrated   atomic.Int64
	readRepairs    atomic.Int64 // stale replicas rewritten by quorum reads

	// Anti-entropy accounting (see antientropy.go): pair syncs run,
	// divergent leaf ranges walked, keys repaired, and the approximate
	// bytes moved doing it — what proves the Merkle exchange scales with
	// divergence, not keyspace.
	aeSyncs        atomic.Int64
	aeRanges       atomic.Int64
	aeKeysRepaired atomic.Int64
	aeBytesMoved   atomic.Int64
	// WAL-streaming re-replication accounting (syncstream.go): full-log
	// streams completed and the filtered frame bytes shipped doing it.
	aeStreams     atomic.Int64
	aeStreamBytes atomic.Int64

	// walRoot is the durable cluster's log directory; walTemp marks it
	// cluster-owned (created by New, removed by Close).
	walRoot string
	walTemp bool
}

// New starts a cluster of cfg.Nodes servers named node0..nodeN-1 and
// its background failure detector.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
		if cfg.Replicas > cfg.Nodes {
			cfg.Replicas = cfg.Nodes
		}
	}
	if cfg.WriteQuorum <= 0 {
		cfg.WriteQuorum = cfg.Replicas/2 + 1
	}
	if cfg.ReadQuorum <= 0 {
		cfg.ReadQuorum = cfg.Replicas/2 + 1
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = 64
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 50 * time.Millisecond
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 250 * time.Millisecond
	}
	if cfg.PoolTimeout <= 0 {
		cfg.PoolTimeout = 500 * time.Millisecond
	}
	if cfg.PoolAttempts <= 0 {
		cfg.PoolAttempts = 2
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = time.Second
	}
	if cfg.CacheLease <= 0 {
		cfg.CacheLease = 50 * time.Millisecond
	}
	if cfg.CacheHotThreshold <= 0 {
		cfg.CacheHotThreshold = 4
	}
	if cfg.SyncStreamThreshold == 0 {
		cfg.SyncStreamThreshold = 0.25
	}
	if cfg.Replicas > cfg.Nodes {
		return nil, fmt.Errorf("cluster: %d replicas need at least that many nodes (have %d)", cfg.Replicas, cfg.Nodes)
	}
	if cfg.WriteQuorum > cfg.Replicas || cfg.ReadQuorum > cfg.Replicas {
		return nil, fmt.Errorf("cluster: quorums W=%d R=%d cannot exceed %d replicas", cfg.WriteQuorum, cfg.ReadQuorum, cfg.Replicas)
	}
	if cfg.WriteQuorum+cfg.ReadQuorum <= cfg.Replicas && !cfg.AllowUnsafeQuorums {
		return nil, fmt.Errorf("cluster: W=%d + R=%d must exceed %d replicas for read/write overlap", cfg.WriteQuorum, cfg.ReadQuorum, cfg.Replicas)
	}

	ring, err := db.NewDHT(cfg.VNodes)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:   cfg,
		ring:  ring,
		nodes: make(map[string]*node),
		sched: sched.New(cfg.Workers),
	}
	if cfg.HotKeyCache {
		c.cache = newHotCache(cacheSize, cfg.CacheLease, cfg.CacheHotThreshold, cacheWindow)
	}
	if cfg.Durable {
		c.walRoot = cfg.WALRoot
		if c.walRoot == "" {
			dir, err := os.MkdirTemp("", "cluster-wal-")
			if err != nil {
				return nil, err
			}
			c.walRoot, c.walTemp = dir, true
		}
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("node%d", i)
		n, err := c.startNode(name)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.ring.AddNode(name) //nolint:errcheck // names are unique by construction
		c.nodes[name] = n
		c.order = append(c.order, name)
	}
	c.hbWG.Add(1)
	go c.heartbeatLoop()
	if cfg.AntiEntropyInterval > 0 {
		c.hbWG.Add(1)
		go c.antiEntropyLoop()
	}
	return c, nil
}

// serverShards is each node's store-stripe count.
const serverShards = 8

// startNode boots one server plus its pooled client, consulting the
// per-node fault hooks so an injected fault persists across Restart.
func (c *Cluster) startNode(name string) (*node, error) {
	scfg := sockets.ServerConfig{
		Shards:       serverShards,
		DrainTimeout: c.cfg.DrainTimeout,
		MaxPending:   c.cfg.MaxPending,
	}
	if c.cfg.Durable {
		// Per-node directory, stable across Restart: recovery replays
		// whatever this node's previous incarnation logged there.
		scfg.WALDir = filepath.Join(c.walRoot, name)
		scfg.WALSegmentBytes = c.cfg.WALSegmentBytes
		scfg.WALScrubInterval = c.cfg.WALScrubInterval
		scfg.WALScrubCorrupt = func(err error) {
			c.emit(EventWALCorrupt, name, err.Error())
		}
	}
	if c.cfg.ServerPreHandle != nil {
		scfg.PreHandle = c.cfg.ServerPreHandle(name)
	}
	srv, err := sockets.NewServerConfig("127.0.0.1:0", scfg)
	if err != nil {
		return nil, err
	}
	pool, err := sockets.NewPool(srv.Addr(), c.poolConfig(name))
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &node{name: name, srv: srv, pool: pool, addr: srv.Addr()}, nil
}

func (c *Cluster) poolConfig(name string) sockets.PoolConfig {
	pcfg := sockets.PoolConfig{
		MaxAttempts: c.cfg.PoolAttempts,
		Timeout:     c.cfg.PoolTimeout,
	}
	if c.cfg.PoolFailConn != nil {
		pcfg.FailConn = c.cfg.PoolFailConn(name)
	}
	if c.cfg.PoolPreAttempt != nil {
		pcfg.PreAttempt = c.cfg.PoolPreAttempt(name)
	}
	return pcfg
}

// emit delivers one lifecycle event to the configured tap.
func (c *Cluster) emit(t EventType, node, detail string) {
	if c.cfg.EventTap != nil {
		c.cfg.EventTap(Event{Time: time.Now(), Type: t, Node: node, Detail: detail})
	}
}

// Close cancels the cluster context — interrupting an in-progress
// heartbeat probe, catch-up, or migration instead of waiting out
// their timeouts — then stops the node servers and clients and the
// migration pool.
func (c *Cluster) Close() {
	if c.closed.Swap(true) {
		return
	}
	c.cancel()
	c.hbWG.Wait()
	c.topoMu.Lock()
	nodes := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.topoMu.Unlock()
	for _, n := range nodes {
		n.client().Close()
		n.server().Close()
	}
	c.sched.Close()
	if c.walTemp {
		os.RemoveAll(c.walRoot)
	}
}

// Nodes returns the member names in join order.
func (c *Cluster) Nodes() []string {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	return append([]string(nil), c.order...)
}

// Moves reports how many stored keys topology changes have given a new
// owner so far — the counter that certifies the ~K/n movement property,
// equal to what db.DHT.Moves reports for the same keys and changes.
func (c *Cluster) Moves() int64 { return c.moves.Load() }

func (c *Cluster) validateKey(key string) error {
	// Apply the wire protocol's key rules before the key reaches the
	// ring metadata, so a rejected key can't leave placement state.
	if key == "" || strings.ContainsAny(key, " \t\n\r") {
		return fmt.Errorf("%w: %q", sockets.ErrBadKey, key)
	}
	return nil
}

// Stored values carry a binary version stamp with a kind byte — see
// internal/version for the encoding: a live value's payload follows
// its stamp, a delete tombstone has none. Tombstones ride the same
// quorum/migration/anti-entropy machinery as writes, so a delete
// wins or loses against concurrent puts by the version total order
// exactly like an overwrite — without them, a replica that missed the
// DEL would resurrect the key on the next quorum read.

// placement is the routing decision for one key: its replica set and,
// during a migration window, the next topology's new replicas that
// writes double-write to.
type placement struct {
	replicas []*node
	extras   []*node
}

// place computes a key's placement under the topology lock and
// registers the operation as in flight; the caller must Done
// c.inflight when the fan-out finishes.
func (c *Cluster) place(key string) placement {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	c.inflight.Add(1)
	return c.placeLocked(key)
}

func (c *Cluster) placeLocked(key string) placement {
	ring := c.ring
	if c.prevRing != nil {
		ring = c.prevRing
	}
	var p placement
	for _, name := range ring.NodesFor(key, c.cfg.Replicas) {
		if n := c.nodes[name]; n != nil {
			p.replicas = append(p.replicas, n)
		}
	}
	if c.prevRing != nil {
		for _, name := range c.ring.NodesFor(key, c.cfg.Replicas) {
			n := c.nodes[name]
			if n == nil {
				continue
			}
			isOld := false
			for _, r := range p.replicas {
				if r == n {
					isOld = true
					break
				}
			}
			if !isOld {
				p.extras = append(p.extras, n)
			}
		}
	}
	return p
}

// Put stores key = value on a write quorum of its replicas with no
// caller deadline. It wraps PutCtx with context.Background().
func (c *Cluster) Put(key, value string) error {
	return c.PutCtx(context.Background(), key, value)
}

// PutCtx stores key = value on a write quorum of its replicas under
// ctx. Each replica's first SETV goes out as a Pool future, so a
// healthy write starts no goroutine per replica. The moment W acks
// arrive the write returns and abandons the requests still in flight,
// so a slow replica costs it nothing beyond quorum time. A replica whose
// first attempt fails or outlives the pool timeout retries on a
// goroutine. The quorum is strict: only a SETV that one of the key's
// own replicas acknowledged counts, and a replica known down gets no
// request and counts as a miss. A missed replica is brought up to date
// later by read repair or anti-entropy, never by a copy parked
// elsewhere. ErrNoQuorum reports a write that fewer than W replicas
// acknowledged (it may still have landed on some of them); a canceled
// or expired ctx surfaces as an error wrapping ctx.Err().
func (c *Cluster) PutCtx(ctx context.Context, key, value string) error {
	ver, err := c.writeQuorum(ctx, "put", key, value, false)
	if err == nil {
		c.puts.Add(1)
		// Write-through before returning: a caller that saw this Put
		// complete must read its own write, cached or not.
		c.cache.writeThrough(key, ver, value, false)
	}
	return err
}

// Del removes key with no caller deadline. It wraps DelCtx with
// context.Background().
func (c *Cluster) Del(key string) error {
	return c.DelCtx(context.Background(), key)
}

// DelCtx removes key by writing a delete tombstone to a write quorum of
// its replicas — the same strict-quorum fan-out and version-resolution
// rules as PutCtx, so a delete racing a put resolves by the version
// order instead of resurrecting on the next read. Deleting a missing
// key is not an error (the tombstone simply becomes the newest
// version).
func (c *Cluster) DelCtx(ctx context.Context, key string) error {
	ver, err := c.writeQuorum(ctx, "del", key, "", true)
	if err == nil {
		c.dels.Add(1)
		// Cached tombstone: a hot key that was just deleted keeps
		// absorbing reads as cached not-founds instead of re-fanning out.
		c.cache.writeThrough(key, ver, "", true)
	}
	return err
}

// writeQuorum is the shared quorum-write core under PutCtx and DelCtx:
// it stamps the write with the key's next version vector, encodes the
// value (or a tombstone), and fans out to the key's replicas until W
// acks arrive. It returns the write's stamp.
//
// The vector is assigned while the shared topology lock that computed
// placement is held: the key's last-seen vector is bumped in the
// coordinator's slot (the first live replica — the node this client
// writes on behalf of) and written back under the key's stripe lock,
// so every write this client issues to a key causally dominates its
// predecessors no matter how their network fan-outs interleave.
func (c *Cluster) writeQuorum(ctx context.Context, op, key, value string, tombstone bool) (version.Header, error) {
	var zero version.Header
	if c.closed.Load() {
		return zero, ErrClosed
	}
	if err := c.validateKey(key); err != nil {
		return zero, err
	}
	if err := ctx.Err(); err != nil {
		c.opsCanceled.Add(1)
		return zero, fmt.Errorf("cluster: %s %q aborted: %w", op, key, err)
	}

	c.topoMu.RLock()
	p := c.placeLocked(key)
	if len(p.replicas) == 0 {
		c.topoMu.RUnlock()
		c.quorumFailures.Add(1)
		return zero, fmt.Errorf("%w: no replicas for %q", ErrNoQuorum, key)
	}
	coord := p.replicas[0].name
	for _, r := range p.replicas {
		if !r.down.Load() {
			coord = r.name
			break
		}
	}
	vec := c.keys.bump(key, coord)
	if c.prevRing != nil {
		c.dirtyMu.Lock()
		c.dirty[key] = struct{}{}
		c.dirtyMu.Unlock()
	}
	c.inflight.Add(1)
	c.topoMu.RUnlock()
	defer c.inflight.Done()
	enc := version.EncodeVector(vec, time.Now().UnixNano(), tombstone, value)
	ver, _, _ := version.ParseHeader(enc) // enc was just encoded: it parses

	// During a migration window, also land the write on the next
	// topology's new replicas. Best effort on the cluster lifetime (the
	// per-op context cancels at quorum, which would starve these): a
	// miss here is repaired by the cutover's dirty-key re-copy.
	for _, extra := range p.extras {
		go func(n *node) {
			ectx, ecancel := context.WithTimeout(c.ctx, c.cfg.PoolTimeout)
			defer ecancel()
			n.client().SetVCtx(ectx, key, enc) //nolint:errcheck // see above
		}(extra)
	}

	fo := c.startFanout(ctx, key, enc, p.replicas)
	defer fo.stop() // reached with quorum: the laggards' requests are abandoned now
	got := 0
	for fo.pending > 0 {
		a, err := fo.next()
		if err != nil {
			c.opsCanceled.Add(1)
			return zero, fmt.Errorf("cluster: %s %q canceled at %d/%d write acks: %w",
				op, key, got, c.cfg.WriteQuorum, err)
		}
		if a.err == nil {
			got++
		}
		if got >= c.cfg.WriteQuorum {
			return ver, nil
		}
	}
	c.quorumFailures.Add(1)
	return zero, fmt.Errorf("%w: %d/%d write acks for %q", ErrNoQuorum, got, c.cfg.WriteQuorum, key)
}

// Get reads key from a read quorum of its replicas with no caller
// deadline. It wraps GetCtx with context.Background().
func (c *Cluster) Get(key string) (value string, found bool, err error) {
	return c.GetCtx(context.Background(), key)
}

// GetCtx reads key from a read quorum of its replicas under ctx and
// returns the newest version seen: causal dominance decides when the
// replicas' version vectors are comparable, the deterministic
// wall-clock tiebreak when they are concurrent. Each replica's first
// GET goes out as a Pool future, with no goroutine per replica, and the
// answers are consumed as they arrive; a replica whose first attempt
// fails or outlives the pool timeout retries on a goroutine. The R-th
// answer resolves the read and abandons the stragglers — quorum
// intersection (W+R > Replicas) already guarantees the newest quorum
// write is among any R distinct replica answers.
// Replicas observed holding a missing or older version are repaired in
// the background (read repair): the winning encoded value is written
// back to them version-conditionally, so the next read finds them
// converged. found is false when a quorum agrees the key does not
// exist; ErrNoQuorum reports fewer than R reachable replicas; a
// canceled or expired ctx surfaces as an error wrapping ctx.Err().
func (c *Cluster) GetCtx(ctx context.Context, key string) (value string, found bool, err error) {
	if c.closed.Load() {
		return "", false, ErrClosed
	}
	if err := c.validateKey(key); err != nil {
		return "", false, err
	}
	if err := ctx.Err(); err != nil {
		c.opsCanceled.Add(1)
		return "", false, fmt.Errorf("cluster: get %q aborted: %w", key, err)
	}
	if v, ok, hit := c.cache.lookup(key); hit {
		// Hot-key fast path: the lease is live, so this answer lags any
		// concurrent write by strictly less than the lease. No replica
		// round trips at all.
		c.gets.Add(1)
		return v, ok, nil
	}
	// The lease of whatever this read caches is anchored HERE, before
	// the fan-out: any write that could make the result stale must
	// finish after this instant (quorum intersection would surface an
	// earlier one), which is what bounds cached staleness by the lease.
	readStart := time.Now()
	p := c.place(key)
	defer c.inflight.Done()
	c.gets.Add(1)

	type resp struct {
		node  *node
		ver   version.Header // ver.Tombstone: the version is a delete
		raw   string         // the stored bytes, for read repair
		value string
		found bool // some version (value or tombstone) exists
	}
	fo := c.startFanout(ctx, key, "", p.replicas)
	defer fo.stop()
	answered := 0
	var best resp
	got := make([]resp, 0, len(p.replicas))
	for fo.pending > 0 {
		a, err := fo.next()
		if err != nil {
			c.opsCanceled.Add(1)
			return "", false, fmt.Errorf("cluster: get %q canceled at %d/%d read answers: %w",
				key, answered, c.cfg.ReadQuorum, err)
		}
		if a.err != nil {
			continue
		}
		r := resp{node: a.node} // found false: a valid "not here" answer
		if a.found {
			ver, v, err := version.ParseHeader(a.raw)
			if err != nil {
				continue
			}
			r = resp{node: a.node, ver: ver, raw: a.raw, value: v, found: true}
		}
		answered++
		got = append(got, r)
		if r.found && (!best.found || r.ver.Newer(best.ver)) {
			best = r
		}
		if answered >= c.cfg.ReadQuorum {
			// Read repair: every answered replica holding something other
			// than the winning version (nothing at all, a dominated
			// version, or a concurrent one that lost the tiebreak) gets
			// the winner written back asynchronously. SETV makes the
			// write-back safe to race with anything: a replica that moved
			// on to a newer version in the meantime just reports stale.
			if best.found {
				var stale []*node
				for _, r := range got {
					if !r.found || r.ver.Compare(best.ver) != version.Equal {
						stale = append(stale, r.node)
					}
				}
				if len(stale) > 0 {
					go c.readRepair(key, best.raw, stale)
				}
			}
			c.cache.observe(key, readStart, best.ver, best.value, best.found && !best.ver.Tombstone)
			// A newest-version tombstone means the key is deleted: the
			// quorum agrees it existed, and that its last write removed it.
			if best.ver.Tombstone {
				return "", false, nil
			}
			return best.value, best.found, nil
		}
	}
	c.quorumFailures.Add(1)
	return "", false, fmt.Errorf("%w: %d/%d read answers for %q", ErrNoQuorum, answered, c.cfg.ReadQuorum, key)
}

// lookup resolves a node by name.
func (c *Cluster) lookup(name string) (*node, error) {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	n, ok := c.nodes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	return n, nil
}

// Kill crash-stops a node's server and client — the fault-injection
// hook. The ring is unchanged; the failure detector (or an explicit
// Probe) notices the silence and routes around it. Bumping the node
// epoch first invalidates any probe already in flight against the dying
// incarnation, so its verdict cannot race the kill. On a durable
// cluster Kill is kill -9: Server.Crash cuts every connection with no
// drain and truncates the node's log to its last fsynced byte, so
// exactly the acked writes survive into the next Restart.
func (c *Cluster) Kill(name string) error {
	n, err := c.lookup(name)
	if err != nil {
		return err
	}
	if n.killed.Swap(true) {
		return fmt.Errorf("cluster: node %q already killed", name)
	}
	n.epoch.Add(1)
	n.client().Close()
	if c.cfg.Durable {
		n.server().Crash() //nolint:errcheck // the node is being killed; the listener error is noise
	} else {
		n.server().Close()
	}
	c.emit(EventKill, name, "")
	return nil
}

// WALDir returns the named durable node's log directory — where its
// segments, snapshot, and any injected corruption live.
func (c *Cluster) WALDir(name string) (string, error) {
	if _, err := c.lookup(name); err != nil {
		return "", err
	}
	if !c.cfg.Durable {
		return "", fmt.Errorf("cluster: node %q has no WAL (cluster is not durable)", name)
	}
	return filepath.Join(c.walRoot, name), nil
}

// WipeWAL deletes a killed node's entire log directory — the disk-loss
// fault: the next Restart comes back empty (or, if the log was merely
// corrupt, no longer refuses to start), and its catch-up rebuilds the
// node from its peers through anti-entropy, streaming their logs
// (SYNCWAL) when the divergence is deep enough.
// Refused while the node is live, whose server owns the directory.
func (c *Cluster) WipeWAL(name string) error {
	n, err := c.lookup(name)
	if err != nil {
		return err
	}
	if !c.cfg.Durable {
		return fmt.Errorf("cluster: node %q has no WAL (cluster is not durable)", name)
	}
	if !n.killed.Load() {
		return fmt.Errorf("cluster: refusing to wipe live node %q's WAL", name)
	}
	return os.RemoveAll(filepath.Join(c.walRoot, name))
}

// Restart brings a killed node back on a fresh port, probes it, and
// runs its catch-up (catchUp) before returning: an anti-entropy pass
// between the node and each live peer, so the node holds every key it
// replicates. A memory-only node returns empty (the process model:
// in-memory state dies with the process) and the catch-up copies its
// whole share back from its peers; a durable node first replays its
// own WAL — snapshot plus log tail — so every write it acked before the
// kill is already served locally, and the catch-up only adds the writes
// it missed while dead. The EventRestart payload records the recovered
// key count. The epoch bump after the swap discards any straggling
// probe of the dead incarnation: the old probe's failure verdict,
// arriving after the restart, would otherwise mark the fresh node down
// until the next heartbeat.
func (c *Cluster) Restart(name string) error {
	n, err := c.lookup(name)
	if err != nil {
		return err
	}
	if !n.killed.Load() {
		return fmt.Errorf("cluster: node %q is not killed", name)
	}
	fresh, err := c.startNode(name)
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.srv, n.pool, n.addr = fresh.srv, fresh.pool, fresh.addr
	n.mu.Unlock()
	n.epoch.Add(1)
	n.killed.Store(false)
	c.emit(EventRestart, name, fmt.Sprintf("recovered %d keys", fresh.srv.RecoveredKeys()))
	c.probeNode(n)
	// The node may never have been marked down (killed and restarted
	// between probes), and writes that skipped it during a down→up
	// catch-up landed only on its peers: catch up again unconditionally.
	// The second pass copies only what the first one missed.
	c.catchUp(n)
	return nil
}
