package sockets

import (
	"errors"
	"time"

	"repro/internal/metrics"
)

// ErrOverload is the typed client-side error for a request the server
// shed at admission: the node's bounded pending-request queue was full,
// so instead of queueing (and letting latency collapse for everyone) it
// answered immediately with wire.RespOverload. The Pool treats it as
// retryable (the existing jittered backoff spaces the retries out), and
// wraps it into the final error when every attempt was shed, so callers
// can errors.Is for it and distinguish "healthy node saying not now"
// from a dead peer.
var ErrOverload = errors.New("sockets: server overloaded, request shed")

// serverVerbs are the per-verb latency histogram keys — the command
// words of wire.VerbName, which the lab's text verbs share.
var serverVerbs = []string{"PING", "SET", "GET", "DEL", "MDEL", "COUNT", "KEYS", "MGET", "MPUT", "SETV", "TREE", "SCAN", "SYNCWAL"}

// Verbs returns the fixed set of per-verb latency keys, in display
// order.
func Verbs() []string {
	out := make([]string, len(serverVerbs))
	copy(out, serverVerbs)
	return out
}

// admit reserves one slot in the node's bounded pending set, or reports
// overload when MaxPending slots are taken (counting the shed). With
// MaxPending <= 0 shedding is disabled but the depth gauge still
// tracks, so an unprotected node's queue growth stays observable.
// PING is exempt at the call sites: shedding heartbeats would make an
// overloaded node look dead, triggering hinted handoff and re-replication
// — extra write load at exactly the wrong moment.
func (s *Server) admit() bool {
	if s.maxPending <= 0 {
		s.notePeak(s.pending.Add(1))
		return true
	}
	for {
		cur := s.pending.Load()
		if cur >= int64(s.maxPending) {
			s.shedSeen.Add(1)
			return false
		}
		if s.pending.CompareAndSwap(cur, cur+1) {
			s.notePeak(cur + 1)
			return true
		}
	}
}

// release frees an admitted request's slot as its response is queued.
func (s *Server) release() { s.pending.Add(-1) }

func (s *Server) notePeak(p int64) {
	for {
		peak := s.pendingPeak.Load()
		if p <= peak || s.pendingPeak.CompareAndSwap(peak, p) {
			return
		}
	}
}

// Shed reports how many requests admission control turned away.
func (s *Server) Shed() int64 { return s.shedSeen.Load() }

// Pending reports the current admitted-but-unanswered request count.
func (s *Server) Pending() int64 { return s.pending.Load() }

// PendingPeak reports the high-water mark of the pending gauge — how
// deep the queue actually got, which is what sizing MaxPending needs.
func (s *Server) PendingPeak() int64 { return s.pendingPeak.Load() }

// VerbLatency returns the latency histogram for one verb (a key from
// Verbs()), or nil for unknown verbs. The map is fixed at construction
// and read-only afterwards, so lookups need no lock.
func (s *Server) VerbLatency(verb string) *metrics.Histogram { return s.verbLat[verb] }

// observeVerb records one request's latency on its verb's histogram.
// Unknown verbs (text garbage) only hit the aggregate histogram.
func (s *Server) observeVerb(verb string, d time.Duration) {
	if h := s.verbLat[verb]; h != nil {
		h.Observe(d)
	}
}
