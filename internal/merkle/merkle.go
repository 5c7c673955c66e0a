// Package merkle maintains the per-node anti-entropy digest: a fixed
// array of buckets over the DHT ring-position space, where each bucket
// holds the XOR of a strong per-entry hash of every (key, value) whose
// ring position falls in the bucket's arc.
//
// XOR folding makes the digest incrementally maintainable in O(1) per
// mutation — a write XORs out the old entry's hash and XORs in the new
// one, so the tracker rides inside the server's shard-locked apply path
// without ever rescanning the store. Any contiguous bucket range folds
// to a range hash in O(range), which is what the TREE wire verb serves:
// two replicas compare a range, split it in half on mismatch, and walk
// down to individual buckets, exchanging key lists (SCAN) only for the
// arcs that actually differ.
//
// Bucketing by ring position (not by raw key hash) means a replica
// pair's shared keys — the keys whose replica arcs contain both nodes —
// occupy contiguous bucket spans, so anti-entropy between two nodes
// touches the buckets of their shared arcs and skips the rest.
package merkle

import (
	"hash/fnv"
	"sync/atomic"

	"repro/internal/db"
)

// Buckets is the fixed cluster-wide bucket count. Every node uses the
// same constant, so bucket i covers the same ring arc on every replica
// and range hashes are directly comparable.
const Buckets = 4096

// bucketShift maps a 32-bit ring position to a bucket index.
const bucketShift = 32 - 12 // log2(Buckets) == 12

// BucketOf returns the bucket whose arc contains key's ring position.
func BucketOf(key string) int {
	return int(db.RingPos(key) >> bucketShift)
}

// EntryHash is the per-entry digest folded into a bucket: a 64-bit
// FNV-1a over key, a zero separator, and the stored value, finished
// with a splitmix64 avalanche so near-identical entries (same key, one
// value byte changed) flip about half the bits they contribute.
func EntryHash(key, value string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write([]byte(value))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Tree is one node's digest. Buckets are updated with atomic XOR
// (CAS loops) because the server's store shards lock independently:
// two mutations on different shards may land in the same bucket
// concurrently. Reads during concurrent writes see a momentary view —
// fine for anti-entropy, where a transient mismatch only costs a
// re-scan on the next round.
type Tree struct {
	buckets [Buckets]atomic.Uint64
}

// xor folds delta into bucket b.
func (t *Tree) xor(b int, delta uint64) {
	if delta == 0 {
		return
	}
	for {
		old := t.buckets[b].Load()
		if t.buckets[b].CompareAndSwap(old, old^delta) {
			return
		}
	}
}

// Apply records one store mutation: the transition of key from
// (oldValue if hadOld) to (newValue if hasNew). Deletes pass
// hasNew=false; first writes pass hadOld=false.
func (t *Tree) Apply(key, oldValue, newValue string, hadOld, hasNew bool) {
	var delta uint64
	if hadOld {
		delta ^= EntryHash(key, oldValue)
	}
	if hasNew {
		delta ^= EntryHash(key, newValue)
	}
	t.xor(BucketOf(key), delta)
}

// ApplyEntry folds one entry hash, as EntryHash computes it for key and
// its stored value, into key's bucket. A Tree built this way from the
// (key, entry hash) pairs a node's SCAN lists equals that node's own
// digest, which is how a digest is checked against its store.
func (t *Tree) ApplyEntry(key string, h uint64) { t.xor(BucketOf(key), h) }

// RangeHash folds buckets [lo, hi) into one comparable digest. Each
// bucket is mixed with its index before folding so a value "sliding"
// from bucket i to bucket j inside the range still changes the hash.
func (t *Tree) RangeHash(lo, hi int) uint64 {
	if lo < 0 {
		lo = 0
	}
	if hi > Buckets {
		hi = Buckets
	}
	var x uint64
	for i := lo; i < hi; i++ {
		b := t.buckets[i].Load()
		if b != 0 {
			x ^= mix(b + uint64(i)*0x9e3779b97f4a7c15)
		}
	}
	return x
}

// mix is a splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
