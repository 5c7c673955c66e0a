// Package wal is the per-node durability layer: a segmented,
// append-only write-ahead log with group commit. Records are framed
// with a uvarint length header and a CRC32C checksum (the wire
// package's framing idioms, hardened for disk), fsyncs are batched
// across concurrent writers on a self-clocking commit loop (the same
// amortization pattern as the coalescing frame writer in
// internal/sockets/coalesce.go), and periodic compacted snapshots
// truncate the segment history so recovery replays a snapshot plus a
// short log tail instead of the whole write history.
//
// The durability contract: when AppendSync returns nil the record is on
// disk and fsynced, and will be replayed by the next Open of the same
// directory. AppendSync splits into Begin (a non-blocking commit-queue
// reservation) and Ticket.Wait (the fsync wait) for callers that must
// establish log order under their own locks — see Begin; Ticket.Then
// hands the outcome to a callback instead of a blocked goroutine. A
// crash (simulated by Crash, which truncates the active segment back to
// its last-synced byte — the strictest reading of kill -9) loses
// exactly the suffix whose AppendSync never returned.
// Recovery tolerates one torn frame at the tail of the newest segment
// (the crash's final, never-acked write) and fails loudly on any other
// malformed byte — serving around an interior hole would silently
// resurrect stale state.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Errors returned by log operations.
var (
	ErrClosed   = errors.New("wal: log closed")
	ErrCrashed  = errors.New("wal: log crashed")
	ErrTooLarge = errors.New("wal: record exceeds MaxRecord")
)

// Config parameterizes Open.
type Config struct {
	// Dir is the log directory (created if missing). One directory is
	// one node's log; Open replays whatever a previous incarnation left
	// there before accepting appends.
	Dir string
	// SegmentBytes is the size past which the commit loop seals the
	// active segment and starts the next (default 4 MiB). Bounding
	// segment size bounds what a single replay pass must buffer.
	SegmentBytes int64
	// OnSnapshot, when non-nil, receives the recovered snapshot (if one
	// exists) before any record replay.
	OnSnapshot func(*Snapshot) error
	// OnRecord, when non-nil, receives every replayed record in log
	// order, after OnSnapshot.
	OnRecord func(*Record) error
	// ReplayWorkers sets the replay fan-out for Open: 0 or 1 replays the
	// segment tail serially; n > 1 verifies and decodes frames in
	// parallel and applies records across n workers partitioned by key
	// stripe (per-key apply order still equals log order — see
	// replay.go). With n > 1, OnRecord must be safe for concurrent calls
	// from multiple goroutines. OnSnapshot is always called once,
	// serially, before any record.
	ReplayWorkers int
}

// entry is one queued unit of work for the commit loop: either a
// framed record with its waiter's ticket, or a rotation marker.
type entry struct {
	frame []byte
	t     *ticket
	rot   *rotReq
}

// ticket is one AppendSync waiter; done closes when the record's batch
// has been written and fsynced (err nil) or abandoned (err set). then is
// the one completion callback a Then caller registered before that.
type ticket struct {
	mu   sync.Mutex
	err  error
	done chan struct{}
	then func(error)
}

// settle records the append's outcome, releases every Wait, and runs
// the completion callback, on the settling goroutine.
func (t *ticket) settle(err error) {
	t.mu.Lock()
	t.err = err
	close(t.done)
	fn := t.then
	t.then = nil
	t.mu.Unlock()
	if fn != nil {
		fn(err)
	}
}

// rotReq is one Rotate waiter; seq carries back the new active
// segment's sequence (the snapshot tail).
type rotReq struct {
	seq  uint64
	err  error
	done chan struct{}
}

// Log is one open write-ahead log.
type Log struct {
	dir      string
	segBytes int64

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []entry
	closed  bool
	crashed bool
	err     error // latched first I/O failure; everything after fails with it

	// Segment state. active/actSeq/written/durable are owned by the
	// commit loop while it runs (and read by Crash/Close only after the
	// loop has exited); sealed is shared under mu between the loop
	// (rotation appends) and WriteSnapshot (pruning).
	active  *os.File
	actSeq  uint64
	written int64
	durable int64
	sealed  []uint64

	done chan struct{} // closed when the commit loop exits

	appends          atomic.Int64
	syncs            atomic.Int64
	scrubSegs        atomic.Int64
	scrubErrs        atomic.Int64
	recoveredRecords int64
	snapshotLoaded   bool
}

// Open replays the directory's snapshot and segment tail into the
// configured callbacks, truncates a torn tail frame if the last crash
// left one, and starts the commit loop on a fresh segment. Recovery
// never appends to an old segment, so "torn tail" can only ever
// describe the newest file.
func Open(cfg Config) (*Log, error) {
	if cfg.Dir == "" {
		return nil, errors.New("wal: Config.Dir required")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: cfg.Dir, segBytes: cfg.SegmentBytes, done: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)

	// A tmp left behind is a snapshot write the crash interrupted; the
	// segments it meant to compact are all still here, so drop it.
	os.Remove(filepath.Join(cfg.Dir, snapTmpName))

	tail := uint64(1)
	snapTail, snap, err := loadSnapshotFile(filepath.Join(cfg.Dir, snapName))
	if err != nil {
		return nil, err
	}
	if snap != nil {
		l.snapshotLoaded = true
		tail = snapTail
		if cfg.OnSnapshot != nil {
			if err := cfg.OnSnapshot(snap); err != nil {
				return nil, err
			}
		}
	}

	seqs, err := l.listSegments()
	if err != nil {
		return nil, err
	}
	maxSeq := tail - 1
	var segs []replaySeg
	for _, seq := range seqs {
		path := l.segPath(seq)
		if seq < tail {
			// Covered by the snapshot; a crash between the snapshot
			// rename and the prune left it behind.
			os.Remove(path)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		segs = append(segs, replaySeg{path: path, data: data})
		if seq > maxSeq {
			maxSeq = seq
		}
		l.sealed = append(l.sealed, seq)
	}
	valids, recs, err := replaySegments(segs, cfg.ReplayWorkers, cfg.OnRecord)
	if err != nil {
		return nil, err
	}
	l.recoveredRecords = recs
	for i, s := range segs {
		if valids[i] < int64(len(s.data)) {
			if err := os.Truncate(s.path, valids[i]); err != nil {
				return nil, err
			}
		}
	}

	l.actSeq = maxSeq + 1
	f, err := os.OpenFile(l.segPath(l.actSeq), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	l.active = f
	if err := l.syncDir(); err != nil {
		f.Close()
		return nil, err
	}
	go l.loop()
	return l, nil
}

func (l *Log) segPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%08d.seg", seq))
}

// listSegments returns the directory's segment sequences, ascending.
func (l *Log) listSegments() ([]uint64, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		var seq uint64
		if n, _ := fmt.Sscanf(e.Name(), "%d.seg", &seq); n == 1 && e.Name() == fmt.Sprintf("%08d.seg", seq) {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// syncDir fsyncs the log directory so segment creates, prunes, and the
// snapshot rename are themselves durable, not just the file contents.
func (l *Log) syncDir() error {
	d, err := os.Open(l.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Ticket is one reserved position in the commit queue — the handle a
// Begin caller holds between enqueueing a record and its covering
// fsync.
type Ticket struct{ t *ticket }

// Wait blocks until the ticket's record is durable — written and
// fsynced — and returns the append's outcome. Multiple goroutines may
// Wait on the same ticket; a nil ticket (no reservation made) is
// trivially done.
func (tk *Ticket) Wait() error {
	if tk == nil {
		return nil
	}
	<-tk.t.done
	return tk.t.err
}

// Then registers fn to receive the append's outcome once the record is
// durable or has failed, instead of blocking in Wait. A settled ticket
// runs fn at once, on the caller's goroutine; otherwise fn runs on the
// commit loop, right after the batch's fsync (or its failure), so it
// must not block: no network write, no lock a Wait caller may hold,
// nothing that waits on this log. A ticket takes at most one callback.
func (tk *Ticket) Then(fn func(error)) {
	t := tk.t
	t.mu.Lock()
	select {
	case <-t.done:
		t.mu.Unlock()
		fn(t.err)
		return
	default:
	}
	t.then = fn
	t.mu.Unlock()
}

// Begin reserves the record's position in the commit queue and returns
// without waiting for durability. It never touches the disk — just a
// mutex-guarded enqueue — which is what lets a caller reserve log order
// while still holding the lock that ordered the corresponding state
// change: apply, Begin, unlock, then Wait off-lock. Because apply and
// reservation sit in one critical section, log order provably equals
// apply order for any two records touching the same key, so replay
// reconstructs the pre-crash state rather than a plausible reordering
// of it.
//
// A record whose encoded payload exceeds MaxRecord fails with
// ErrTooLarge before reaching the queue: writing it would fsync bytes
// every subsequent Open must reject as corrupt, bricking the log.
func (l *Log) Begin(rec *Record) *Ticket {
	payload := rec.encode(nil)
	if len(payload) > MaxRecord {
		return failedTicket(fmt.Errorf("%w: payload of %d exceeds %d", ErrTooLarge, len(payload), MaxRecord))
	}
	frame := appendFrame(nil, payload)
	t := &ticket{done: make(chan struct{})}
	l.mu.Lock()
	if err := l.stateErrLocked(); err != nil {
		l.mu.Unlock()
		return failedTicket(err)
	}
	l.queue = append(l.queue, entry{frame: frame, t: t})
	l.mu.Unlock()
	l.cond.Signal()
	return &Ticket{t: t}
}

// failedTicket is a pre-resolved ticket for appends rejected before
// they reach the queue.
func failedTicket(err error) *Ticket {
	t := &ticket{done: make(chan struct{})}
	t.settle(err)
	return &Ticket{t: t}
}

// AppendSync logs one record and blocks until it is durable — written
// and fsynced. Concurrency is what makes this fast: while one fsync is
// in flight, every record that arrives queues behind it and rides the
// next flush, so under N concurrent writers up to N fsyncs collapse
// into one (the group commit). A lone writer degrades to one fsync per
// record — the price of durability with nobody to share it with.
func (l *Log) AppendSync(rec *Record) error {
	return l.Begin(rec).Wait()
}

// Rotate seals the active segment and opens the next, serialized with
// appends through the commit queue: every record enqueued before the
// Rotate call lands in a pre-rotation segment. It returns the new
// active segment's sequence — the snapshot tail. State captured after
// Rotate returns therefore covers every sealed segment below that
// tail, provided the owner applies each record's effects before
// enqueueing it (the server does; see DESIGN.md §8).
func (l *Log) Rotate() (uint64, error) {
	r := &rotReq{done: make(chan struct{})}
	l.mu.Lock()
	if err := l.stateErrLocked(); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	l.queue = append(l.queue, entry{rot: r})
	l.mu.Unlock()
	l.cond.Signal()
	<-r.done
	return r.seq, r.err
}

// stateErrLocked maps the log's terminal states to their errors.
// Caller holds l.mu.
func (l *Log) stateErrLocked() error {
	switch {
	case l.err != nil:
		return l.err
	case l.crashed:
		return ErrCrashed
	case l.closed:
		return ErrClosed
	}
	return nil
}

// WriteSnapshot atomically persists a compacted snapshot covering every
// segment below tail, then prunes those segments. Sound because every
// flush fsyncs before its waiters are released and rotation only
// happens between flushes: a sealed segment is fully durable, and
// state captured after the Rotate that returned tail reflects every
// record in it. Replaying the surviving suffix over the snapshot is a
// sequence of overwrites in log order, so the overlap is idempotent.
func (l *Log) WriteSnapshot(tail uint64, snap *Snapshot) error {
	if err := writeSnapshotFile(l.dir, tail, snap); err != nil {
		return err
	}
	if err := l.syncDir(); err != nil {
		return err
	}
	l.mu.Lock()
	var prune []uint64
	keep := l.sealed[:0]
	for _, seq := range l.sealed {
		if seq < tail {
			prune = append(prune, seq)
		} else {
			keep = append(keep, seq)
		}
	}
	l.sealed = keep
	l.mu.Unlock()
	for _, seq := range prune {
		os.Remove(l.segPath(seq))
	}
	return nil
}

// Close drains the queue — every record already accepted is flushed
// and fsynced — then stops the loop and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	already := l.closed || l.crashed
	l.closed = true
	l.mu.Unlock()
	l.cond.Signal()
	<-l.done
	if already {
		return nil
	}
	if l.active == nil {
		// A failed rotation already closed the old segment and never got
		// a new one open; surface the latched root cause instead of a
		// spurious double-close error.
		return l.latched()
	}
	return l.active.Close()
}

// Crash simulates kill -9: queued and in-flight appends fail with
// ErrCrashed, and the active segment is truncated back to its last
// fsynced byte — discarding exactly the suffix whose AppendSync never
// returned. Durable (acked) records are untouched; the next Open
// replays them. This is deliberately harsher than a real process kill
// (the page cache would usually save unsynced writes); testing against
// the worst case is the point.
func (l *Log) Crash() error {
	l.mu.Lock()
	if l.closed || l.crashed {
		l.mu.Unlock()
		return nil
	}
	l.crashed = true
	l.mu.Unlock()
	l.cond.Signal()
	<-l.done
	if l.active != nil { // nil after a failed rotation already closed it
		l.active.Close()
	}
	return os.Truncate(l.segPath(l.actSeq), l.durable)
}

// Appends and Syncs expose the group-commit ratio: appends/syncs is
// how many acked records each fsync amortized.
func (l *Log) Appends() int64 { return l.appends.Load() }
func (l *Log) Syncs() int64   { return l.syncs.Load() }

// RecoveredRecords is how many log-tail records Open replayed (not
// counting snapshot contents).
func (l *Log) RecoveredRecords() int64 { return l.recoveredRecords }

// SnapshotLoaded reports whether Open recovered from a snapshot.
func (l *Log) SnapshotLoaded() bool { return l.snapshotLoaded }

// Segments is the live segment-file count (sealed plus active) — what
// snapshot truncation keeps bounded.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed) + 1
}

// loop is the commit loop: it drains whatever has accumulated in the
// queue and services the batch — the self-clocking batching of
// sockets' frameWriter, with fsync as the syscall being amortized.
func (l *Log) loop() {
	defer close(l.done)
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.closed && !l.crashed {
			l.cond.Wait()
		}
		if l.crashed {
			q := l.queue
			l.queue = nil
			l.mu.Unlock()
			failBatch(q, ErrCrashed) // the never-acked suffix
			return
		}
		if l.closed && len(l.queue) == 0 {
			l.mu.Unlock()
			return
		}
		batch := l.queue
		l.queue = nil
		l.mu.Unlock()
		l.run(batch)
	}
}

// run services one dequeued batch in arrival order: frames between
// rotation markers are flushed as one write+fsync group; each marker
// then seals the segment. A size-triggered rotation rides the end of
// the batch.
func (l *Log) run(batch []entry) {
	start := 0
	for i, e := range batch {
		if e.rot == nil {
			continue
		}
		l.flush(batch[start:i])
		e.rot.seq, e.rot.err = l.rotate()
		close(e.rot.done)
		start = i + 1
	}
	l.flush(batch[start:])
	if l.written > l.segBytes {
		l.rotate() //nolint:errcheck // failure latches in l.err; the next batch fails with it
	}
}

// flush is the group commit: one Write and one Sync for however many
// frames the batch accumulated, then every waiter is released at once.
func (l *Log) flush(es []entry) {
	if len(es) == 0 {
		return
	}
	if err := l.latched(); err != nil {
		failBatch(es, err)
		return
	}
	size := 0
	for _, e := range es {
		size += len(e.frame)
	}
	buf := make([]byte, 0, size)
	for _, e := range es {
		buf = append(buf, e.frame...)
	}
	if _, err := l.active.Write(buf); err != nil {
		l.latch(err)
		failBatch(es, err)
		return
	}
	l.written += int64(len(buf))
	if err := l.active.Sync(); err != nil {
		l.latch(err)
		failBatch(es, err)
		return
	}
	l.durable = l.written
	l.syncs.Add(1)
	l.appends.Add(int64(len(es)))
	for _, e := range es {
		e.t.settle(nil)
	}
}

// rotate seals the active segment and opens the next. Every flush
// syncs before releasing waiters, so the sealed file is durable in
// full the moment it is sealed.
func (l *Log) rotate() (uint64, error) {
	if err := l.latched(); err != nil {
		return 0, err
	}
	// Past this point the old active file is closed either way: clear
	// l.active so a failure below doesn't leave Close/Crash double-closing
	// it (the "file already closed" error would mask the latched root
	// cause). The old segment was fully flushed before this rotation ran,
	// so durable still describes it correctly for Crash's truncate.
	err := l.active.Close()
	l.active = nil
	if err != nil {
		l.latch(err)
		return 0, err
	}
	l.mu.Lock()
	l.sealed = append(l.sealed, l.actSeq)
	next := l.actSeq + 1
	l.mu.Unlock()
	f, err := os.OpenFile(l.segPath(next), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		l.latch(err)
		return 0, err
	}
	if err := l.syncDir(); err != nil {
		l.latch(err)
		f.Close()
		return 0, err
	}
	l.mu.Lock()
	l.active, l.actSeq, l.written, l.durable = f, next, 0, 0
	l.mu.Unlock()
	return next, nil
}

func (l *Log) latch(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
}

func (l *Log) latched() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// failBatch releases a batch's waiters with err.
func failBatch(es []entry, err error) {
	for _, e := range es {
		if e.rot != nil {
			e.rot.err = err
			close(e.rot.done)
			continue
		}
		e.t.settle(err)
	}
}
