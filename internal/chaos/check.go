package chaos

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"
)

// The checker validates a recorded history against the consistency
// contract the cluster actually makes: a versioned register per key
// under strict quorums (W+R > Replicas), with failed operations
// indeterminate. Replicas order copies by version vectors, not a
// global sequence, but the checker needs only one consequence of that
// scheme: the client stamps each write {writer: n} from one counter
// that every write increments, so a write that provably finished
// before another began carries a vector the later write DOMINATES —
// real-time-ordered writes are totally ordered by dominance, and a
// quorum read returns the winning version its quorum holds.
//
// The rules, per key, using only real-time operation windows [Start,
// End] and the run-unique write values:
//
//   - A successful read returning value v must match exactly one put of
//     v (values are unique). That put W is a legal source iff it could
//     have taken effect by the time the read returned — W.Start < R.End
//     — and it has not been superseded: no *successful* write W2 (put
//     or del) exists with W.End < W2.Start and W2.End < R.Start. Such a
//     W2 finished before the read began and began after the candidate
//     finished, so its version provably dominates the candidate's and
//     quorum intersection guarantees the read must have seen it.
//   - A successful read returning not-found has candidates {initial
//     state} ∪ {dels D with D.Start < R.End}; the same supersession
//     rule applies with puts as the invalidators.
//   - An operation that returned an error is indeterminate: it is a
//     valid candidate (it may have partially taken effect) but never an
//     invalidator (it cannot be proven to have happened).
//
// This is Porcupine-style single-key linearizability checking reduced
// to the versioned register: because values are unique and real-time-
// ordered writes are version-ordered, per-read validation against the
// write history is sound without state-space search. Writes whose
// windows OVERLAP are ordered by which drew its count first, not by
// which finished first, and the checker is agnostic to which side
// wins — the supersession rule only
// fires on real-time order, where dominance is guaranteed, so either
// resolution of a genuine race is a legal observation. One deliberate
// weakening: reads are not chained to *other reads*, so a read that
// observes a partially applied (errored) write does not force later
// reads to observe it too. Read repair narrows that window — a quorum
// read asynchronously rewrites the replicas it caught lagging — but
// cannot close it; the contract under test — reads see every write
// that was *acknowledged* — is exactly what the rules above capture.

// AnomalyKind labels a consistency violation.
type AnomalyKind string

// The anomaly kinds the checker reports.
const (
	// AnomalyStale: the read's value (or not-found) was superseded by a
	// write that provably finished before the read began.
	AnomalyStale AnomalyKind = "stale-read"
	// AnomalyPhantom: the read returned a value no put ever wrote.
	AnomalyPhantom AnomalyKind = "phantom-read"
	// AnomalyFuture: the read returned a value whose put started only
	// after the read had already returned.
	AnomalyFuture AnomalyKind = "future-read"
)

// Anomaly is one consistency violation: the offending read, the
// candidate write it observed (nil for phantom reads), and the
// successful write that invalidates the observation (nil unless stale).
type Anomaly struct {
	Kind        AnomalyKind
	Key         string
	Read        Op
	Candidate   *Op
	Invalidator *Op
}

func (a Anomaly) String() string {
	s := fmt.Sprintf("%s key=%q read by worker %d -> (%q, found=%v) at +%s",
		a.Kind, a.Key, a.Read.Worker, a.Read.Value, a.Read.Found, a.Read.End.Sub(a.Read.Start))
	if a.Candidate != nil {
		s += fmt.Sprintf("; candidate %s %q", a.Candidate.Kind, a.Candidate.Value)
	}
	if a.Invalidator != nil {
		s += fmt.Sprintf("; superseded by %s %q finished %s before the read began",
			a.Invalidator.Kind, a.Invalidator.Value, a.Read.Start.Sub(a.Invalidator.End).Round(time.Microsecond))
	}
	return s
}

// ErrorBuckets classifies the errored operations of a history.
type ErrorBuckets struct {
	// Canceled: the operation's own context expired or was canceled
	// (deadline storms do this on purpose).
	Canceled int
	// Excused: the failure overlaps a scheduled disturbance — the fault
	// plan itself made the quorum unreachable.
	Excused int
	// Unexcused: the operation failed with no fault active anywhere
	// near it. Scenarios assert this stays zero: the cluster must not
	// fail requests while healthy.
	Unexcused int
}

func (b ErrorBuckets) Total() int { return b.Canceled + b.Excused + b.Unexcused }

// CheckResult is the checker's verdict on one history.
type CheckResult struct {
	Ops       int
	Anomalies []Anomaly
	Errors    ErrorBuckets
}

// Check validates a history. excuse, when non-nil, reports whether an
// errored operation's window overlaps scheduled fault activity (the
// harness derives it from the executed fault plan and the cluster's
// event stream); errored ops failing neither the context test nor
// excuse are counted Unexcused.
func Check(ops []Op, excuse func(Op) bool) CheckResult {
	return CheckWithStaleness(ops, excuse, 0)
}

// CheckWithStaleness validates a history under a bounded-staleness
// allowance: a read may legally observe any value that was current
// within `staleness` before the read began. staleness=0 is the strict
// LWW contract (Check). The hot-key lease cache runs under this
// checker with staleness = the configured lease — the cache's whole
// guarantee is that a cached read is never staler than its lease, so a
// supersessor only invalidates an observation when it finished more
// than one lease before the read started.
func CheckWithStaleness(ops []Op, excuse func(Op) bool, staleness time.Duration) CheckResult {
	res := CheckResult{Ops: len(ops)}
	byKey := map[string][]int{}
	for i, op := range ops {
		if op.Err != nil {
			switch {
			case errors.Is(op.Err, context.Canceled) || errors.Is(op.Err, context.DeadlineExceeded):
				res.Errors.Canceled++
			case excuse != nil && excuse(op):
				res.Errors.Excused++
			default:
				res.Errors.Unexcused++
			}
		}
		byKey[op.Key] = append(byKey[op.Key], i)
	}
	for key, idxs := range byKey {
		res.Anomalies = append(res.Anomalies, checkKey(key, ops, idxs, staleness)...)
	}
	return res
}

// checkKey applies the register rules to one key's operations (idxs
// index into ops, already sorted by Start). staleness pads every
// supersession test: an invalidating write only disqualifies a
// candidate when it finished more than `staleness` before the read
// began.
func checkKey(key string, ops []Op, idxs []int, staleness time.Duration) []Anomaly {
	var anomalies []Anomaly
	// successful writes (puts and dels) are the only invalidators.
	var succ []int
	for _, i := range idxs {
		if ops[i].Err == nil && (ops[i].Kind == OpPut || ops[i].Kind == OpDel) {
			succ = append(succ, i)
		}
	}
	// supersededBy returns a successful write that provably outranks the
	// candidate write window [candEnd] from the viewpoint of a read
	// starting at rStart — or nil.
	supersededBy := func(candEnd, rStart time.Time, candIdx int) *Op {
		for _, j := range succ {
			if j == candIdx {
				continue
			}
			w2 := ops[j]
			if candEnd.Before(w2.Start) && w2.End.Add(staleness).Before(rStart) {
				return &w2
			}
		}
		return nil
	}
	for _, i := range idxs {
		r := ops[i]
		if r.Kind != OpGet || r.Err != nil {
			continue
		}
		if r.Found {
			// match the unique put that produced this value.
			cand := -1
			for _, j := range idxs {
				if ops[j].Kind == OpPut && ops[j].Value == r.Value {
					cand = j
					break
				}
			}
			if cand < 0 {
				anomalies = append(anomalies, Anomaly{Kind: AnomalyPhantom, Key: key, Read: r})
				continue
			}
			w := ops[cand]
			if !w.Start.Before(r.End) {
				anomalies = append(anomalies, Anomaly{Kind: AnomalyFuture, Key: key, Read: r, Candidate: &w})
				continue
			}
			if inv := supersededBy(w.End, r.Start, cand); inv != nil {
				anomalies = append(anomalies, Anomaly{Kind: AnomalyStale, Key: key, Read: r, Candidate: &w, Invalidator: inv})
			}
			continue
		}
		// not-found: legal if the initial state or some del survives
		// supersession by a successful put.
		var newestPut *Op
		for _, j := range succ {
			if ops[j].Kind == OpPut && ops[j].End.Add(staleness).Before(r.Start) {
				if newestPut == nil || ops[j].End.After(newestPut.End) {
					w := ops[j]
					newestPut = &w
				}
			}
		}
		if newestPut == nil {
			continue // initial state: nothing was ever surely written before the read
		}
		legal := false
		for _, j := range idxs {
			d := ops[j]
			if d.Kind != OpDel || !d.Start.Before(r.End) {
				continue
			}
			if supersededByPut(d.End, r.Start, ops, succ, staleness) == nil {
				legal = true
				break
			}
		}
		if !legal {
			anomalies = append(anomalies, Anomaly{Kind: AnomalyStale, Key: key, Read: r, Invalidator: newestPut})
		}
	}
	return anomalies
}

// supersededByPut is the not-found variant of the supersession rule:
// only successful puts invalidate a delete observation.
func supersededByPut(candEnd, rStart time.Time, ops []Op, succ []int, staleness time.Duration) *Op {
	for _, j := range succ {
		w2 := ops[j]
		if w2.Kind != OpPut {
			continue
		}
		if candEnd.Before(w2.Start) && w2.End.Add(staleness).Before(rStart) {
			return &w2
		}
	}
	return nil
}

// Summary renders the verdict in one line.
func (r CheckResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d ops, %d anomalies, errors: %d canceled / %d excused / %d unexcused",
		r.Ops, len(r.Anomalies), r.Errors.Canceled, r.Errors.Excused, r.Errors.Unexcused)
	return b.String()
}
