package sockets

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
)

// errWriterClosed reports an enqueue on a frameWriter that has already
// been stopped (its connection incarnation is being retired).
var errWriterClosed = errors.New("sockets: frame writer closed")

// frameWriter is the writing half of a pipelined connection: callers
// encode their frames straight into one length-prefixed byte queue and
// return immediately; a dedicated writer goroutine swaps that queue
// with a spare buffer and ships the whole batch with one conn.Write. The
// batching is self-clocking — while one flush syscall is in flight,
// every frame that arrives queues behind it and rides the next flush —
// so under N in-flight operations up to N write syscalls collapse into
// one. That amortization (and its mirror on the read side, one buffered
// reader draining responses) is where the binary protocol's throughput
// edge over write-read-per-turn text comes from on low-latency links.
//
// The two buffers are the writer's only memory and they settle at the
// connection's usual batch size, so a steady stream of frames allocates
// nothing. A buffer that grew past maxKeptBuffer (a SYNCWAL chunk, an
// MPUT batch) is dropped after its flush rather than kept, so one big
// frame does not pin its size on the connection for good.
//
// Write errors surface asynchronously on the onErr callback (once); by
// then earlier write() calls have already returned nil, which is fine —
// a broken connection fails the whole incarnation and the per-request
// retry machinery takes over. A wedged peer is handled the same way:
// nobody arms write deadlines here, the owner just closes the conn
// (dead-conn heuristic, pool Close, server drain cutoff), which breaks
// a blocked Write with an error.
type frameWriter struct {
	conn  net.Conn
	onErr func(error) // called once, from the writer goroutine

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []byte // length-prefixed frames waiting for the next flush
	err    error  // latched first failure
	closed bool
	done   chan struct{} // closed when loop exits (queue drained or conn failed)
}

// maxKeptBuffer is the largest queue buffer the writer keeps for reuse
// after a flush.
const maxKeptBuffer = 64 << 10

func newFrameWriter(conn net.Conn, onErr func(error)) *frameWriter {
	w := &frameWriter{conn: conn, onErr: onErr, done: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.loop()
	return w
}

// write appends one frame to the queue: encode appends the payload to
// the buffer it is given and returns the extended slice, and the writer
// adds the length header. encode runs under the writer's lock, straight
// into the queue, so the payload is never staged in a buffer of its own;
// it must not retain the slice. write fails fast only if the writer
// already died or stopped.
func (w *frameWriter) write(encode func(dst []byte) []byte) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.closed {
		w.mu.Unlock()
		return errWriterClosed
	}
	start := len(w.queue)
	w.queue = encode(append(w.queue, 0, 0, 0, 0))
	binary.BigEndian.PutUint32(w.queue[start:], uint32(len(w.queue)-start-4))
	w.mu.Unlock()
	w.cond.Signal()
	return nil
}

// stop shuts the writer down and blocks until everything already
// queued has been flushed onto the connection (or the connection has
// failed) — when stop returns, no response is stranded in the queue, so
// a caller tearing a connection down can stop-then-close without
// dropping frames. A wedged flush cannot block stop forever: whoever
// owns the conn closes it eventually (pool Close, server drain cutoff),
// which fails the in-flight Write and releases the loop. Safe to call
// more than once; concurrent write() calls after stop get
// errWriterClosed.
func (w *frameWriter) stop() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.cond.Signal()
	<-w.done
}

func (w *frameWriter) loop() {
	defer close(w.done)
	var spare []byte
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.closed && w.err == nil {
			w.cond.Wait()
		}
		if w.err != nil || (w.closed && len(w.queue) == 0) {
			w.mu.Unlock()
			return
		}
		batch := w.queue
		w.queue = spare[:0]
		w.mu.Unlock()

		if _, err := w.conn.Write(batch); err != nil {
			w.mu.Lock()
			w.err = err
			w.mu.Unlock()
			if w.onErr != nil {
				w.onErr(err)
			}
			return
		}
		spare = nil
		if cap(batch) <= maxKeptBuffer {
			spare = batch
		}
	}
}
