package cluster

import (
	"sync"

	"repro/internal/version"
)

// keyStripes is how many independently locked maps the key table is
// split into, so writes to different keys rarely contend.
const keyStripes = 16

// keyTable is the client's per-key version table: each key this client
// has written maps to the vector section of its last stamp (from
// version.Bump) — a few bytes per key, not a map. Writes bump a key
// under its stripe's mutex while holding topoMu shared. Nothing walks
// the table: the nodes, paged through SCAN, are where the cluster finds
// its keys.
type keyTable [keyStripes]keyStripe

type keyStripe struct {
	mu sync.Mutex
	m  map[string]string
}

// bump assigns key's next vector: the last one with coord's slot
// incremented. It records the vector and returns it.
func (t *keyTable) bump(key, coord string) string {
	s := &t[stripeOf(key, keyStripes)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]string)
	}
	vec := version.Bump(s.m[key], coord)
	s.m[key] = vec
	return vec
}

// stripeOf hashes key (FNV-1a) onto one of n stripes without
// allocating.
func stripeOf(key string, n uint32) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h % n
}
