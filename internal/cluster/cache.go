package cluster

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/version"
)

// cacheShards spreads the hot-key cache over independently locked
// stripes (same motive as the server's store shards: zipfian read
// traffic must not serialize on one mutex — though the hottest key
// still lands on one stripe, the lock is held for a map lookup, not a
// network round trip).
const cacheShards = 16

// cacheSize is the cache's total entry budget across its shards, and
// cacheWindow the admission-rate window a key's reads are counted in.
const (
	cacheSize   = 4096
	cacheWindow = time.Second
)

// hotCache is the client-side hot-key read cache: a small sharded LRU
// holding only keys whose observed read rate crossed a threshold, each
// entry carrying a short lease. It exists for exactly one traffic
// shape — zipfian read-heavy — where a handful of keys absorb most of
// the quorum fan-outs; serving those from memory converts ~R replica
// round trips per hot read into zero.
//
// Coherence model (DESIGN.md §7 has the full argument):
//
//   - A read-populated entry's lease is anchored at the quorum read's
//     START, not at insertion: expires = readStart + lease. Any write
//     W2 that could make the entry stale must have finished AFTER
//     readStart (had W2's write quorum completed before the read
//     began, quorum intersection would have surfaced W2's version to
//     the read), so a cached read served before readStart+lease is
//     stale by strictly less than lease relative to W2's completion.
//   - Writes are write-through before they return: PutCtx/DelCtx call
//     writeThrough with the committed version, so a client that saw
//     its own write complete reads its own write from the cache
//     (read-your-writes within one cluster handle), and the entry a
//     newer write supersedes is replaced before any later-starting
//     read can observe it.
//   - Every update is guarded by the version total order (apply only
//     if the incoming version is not beaten by the resident one), so
//     racing populates and write-throughs resolve exactly like replica
//     divergence does: dominance first, deterministic tiebreak for
//     concurrent histories.
//
// Net guarantee: a cached read is never staler than the configured
// lease, and the chaos checker verifies it with the lease as the
// staleness allowance.
type hotCache struct {
	lease     time.Duration
	threshold int
	window    time.Duration

	shards [cacheShards]cacheShard

	hits       atomic.Int64
	misses     atomic.Int64
	admissions atomic.Int64
	writeThrus atomic.Int64
	expiries   atomic.Int64
	evictions  atomic.Int64
}

// cacheShard is one stripe: an LRU of admitted entries plus the
// admission counters for keys still proving they are hot. counts is
// cleared every window, so a key must sustain threshold reads within
// one window to be admitted — a bounded, self-resetting approximation
// of read rate.
type cacheShard struct {
	mu          sync.Mutex
	cap         int
	entries     map[string]*list.Element
	lru         *list.List // front = most recent
	counts      map[string]int
	windowStart time.Time
}

// cacheEntry is one cached key version. deleted entries are cached
// not-founds (a hot key that was deleted keeps absorbing reads).
type cacheEntry struct {
	key     string
	ver     version.Header
	value   string
	deleted bool
	expires time.Time
}

// supersedes reports whether an update carrying ver may overwrite an
// entry at cur: yes unless cur strictly beats it under the version
// total order. Equal versions refresh (same bytes, fresher lease),
// mirroring the seed's `seq >= entry.seq` guard.
func supersedes(ver, cur version.Header) bool {
	return !cur.Newer(ver)
}

// newHotCache sizes the cache. size is the total entry budget across
// shards; threshold is how many observed reads within window admit a
// key.
func newHotCache(size int, lease time.Duration, threshold int, window time.Duration) *hotCache {
	per := size / cacheShards
	if per < 1 {
		per = 1
	}
	h := &hotCache{lease: lease, threshold: threshold, window: window}
	for i := range h.shards {
		h.shards[i] = cacheShard{
			cap:     per,
			entries: make(map[string]*list.Element, per),
			lru:     list.New(),
			counts:  make(map[string]int),
		}
	}
	return h
}

func (h *hotCache) shard(key string) *cacheShard {
	return &h.shards[stripeOf(key, cacheShards)]
}

// lookup serves a read from the cache when the key has a live lease.
// hit=false means the caller must do the quorum read (and should call
// observe with its outcome). Expired entries stay in place — observe
// refreshes them under the seq guard — but count as misses.
func (h *hotCache) lookup(key string) (value string, found, hit bool) {
	if h == nil {
		return "", false, false
	}
	now := time.Now()
	s := h.shard(key)
	s.mu.Lock()
	el, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		h.misses.Add(1)
		return "", false, false
	}
	e := el.Value.(*cacheEntry)
	if now.After(e.expires) {
		s.mu.Unlock()
		h.expiries.Add(1)
		h.misses.Add(1)
		return "", false, false
	}
	s.lru.MoveToFront(el)
	value, found = e.value, !e.deleted
	s.mu.Unlock()
	h.hits.Add(1)
	return value, found, true
}

// observe feeds one quorum read's outcome to the cache: it counts the
// key toward hot admission and, once admitted (or already resident),
// installs the result with the lease anchored at readStart. found=false
// with a zero version is a quorum-agreed "never existed"; found=false
// with a real version is a tombstone — both cache as not-found.
func (h *hotCache) observe(key string, readStart time.Time, ver version.Header, value string, found bool) {
	if h == nil {
		return
	}
	expires := readStart.Add(h.lease)
	if time.Now().After(expires) {
		return // the read outlived its own lease; nothing worth caching
	}
	s := h.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		if supersedes(ver, e.ver) {
			e.ver, e.value, e.deleted, e.expires = ver, value, !found, expires
		}
		s.lru.MoveToFront(el)
		return
	}
	// Not resident: count toward admission within the current window.
	now := time.Now()
	if s.windowStart.IsZero() || now.Sub(s.windowStart) > h.window {
		s.counts = make(map[string]int)
		s.windowStart = now
	}
	s.counts[key]++
	if s.counts[key] < h.threshold {
		return
	}
	delete(s.counts, key)
	for s.lru.Len() >= s.cap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.entries, oldest.Value.(*cacheEntry).key)
		h.evictions.Add(1)
	}
	s.entries[key] = s.lru.PushFront(&cacheEntry{
		key: key, ver: ver, value: value, deleted: !found, expires: expires,
	})
	h.admissions.Add(1)
}

// writeThrough lands a committed write on the cache before PutCtx or
// DelCtx returns: resident entries are updated in place (same version
// guard as observe) with a fresh lease from now — the value IS the
// newest committed version at this instant, and any write that
// supersedes it will run its own writeThrough before returning.
// Non-resident keys are left alone: write traffic must not flush the
// read-hot working set.
func (h *hotCache) writeThrough(key string, ver version.Header, value string, deleted bool) {
	if h == nil {
		return
	}
	s := h.shard(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		if supersedes(ver, e.ver) {
			e.ver, e.value, e.deleted, e.expires = ver, value, deleted, time.Now().Add(h.lease)
		}
	}
	s.mu.Unlock()
	h.writeThrus.Add(1)
}

// Hits reports cache hits (reads served without a quorum fan-out).
func (h *hotCache) Hits() int64 {
	if h == nil {
		return 0
	}
	return h.hits.Load()
}

// Misses reports lookups that fell through to a quorum read.
func (h *hotCache) Misses() int64 {
	if h == nil {
		return 0
	}
	return h.misses.Load()
}
