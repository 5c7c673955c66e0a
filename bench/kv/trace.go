package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded from outside a layer: a root span
// around each cluster call, or a probe's parent span and the child spans
// of the ops it replays. n is how many ops the span covers: 1, except
// for batch spans around ops too short to time one by one. name indexes
// the tracer's name table, so a span holds no pointer and the buffer
// costs the collector nothing to scan during the window.
type span struct {
	id, parent uint64
	op         int64
	n          int
	name       uint16
	start, end int64 // nanoseconds since the tracer's epoch
}

// nameTable holds every span name recorded so far. It is replaced, never
// changed, so record reads it without a lock.
type nameTable struct {
	names []string
	index map[string]uint16
}

// tracer keeps spans in a buffer allocated up front, so recording one
// costs an atomic add, a name lookup and a store, and writes them out
// when the run ends. Spans past the buffer's end are counted and
// dropped.
type tracer struct {
	epoch   time.Time
	ids     atomic.Uint64
	next    atomic.Int64
	dropped atomic.Int64
	buf     []span
	mu      sync.Mutex // serializes additions to table
	table   atomic.Pointer[nameTable]
}

func newTracer(capacity int) *tracer {
	t := &tracer{epoch: time.Now(), buf: make([]span, capacity)}
	t.table.Store(&nameTable{index: make(map[string]uint16)})
	return t
}

// nameID returns name's index in the name table, adding it on first use.
func (t *tracer) nameID(name string) uint16 {
	if id, ok := t.table.Load().index[name]; ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.table.Load()
	if id, ok := old.index[name]; ok {
		return id
	}
	id := uint16(len(old.names))
	nt := &nameTable{names: append(old.names[:len(old.names):len(old.names)], name), index: maps.Clone(old.index)}
	nt.index[name] = id
	t.table.Store(nt)
	return id
}

// name and layer of a recorded span: a span name is "<layer>.<what>".
func (t *tracer) name(s span) string { return t.table.Load().names[s.name] }
func (t *tracer) layer(s span) string {
	l, _, _ := strings.Cut(t.name(s), ".")
	return l
}

// newID reserves a span id; a parent takes its id before its children.
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(name string, id, parent uint64, op int64, n int, start, end time.Time) {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return
	}
	t.buf[i] = span{id: id, parent: parent, op: op, n: n, name: t.nameID(name),
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))}
}

func (t *tracer) spans() []span { return t.buf[:min(t.next.Load(), int64(len(t.buf)))] }

// probe opens a layer probe's parent span; the returned func closes it.
func (t *tracer) probe(layer string) (id uint64, done func()) {
	id, start := t.newID(), time.Now()
	return id, func() { t.record(layer+".probe", id, 0, 0, 0, start, time.Now()) }
}

// writeSpans writes every recorded span to dir/spans.jsonl, one JSON
// object a line.
func (t *tracer) writeSpans(dir string) error {
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, s := range t.spans() {
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendUint(line, s.id, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendUint(line, s.parent, 10)
		line = append(line, `,"name":"`...)
		line = append(line, t.name(s)...)
		line = append(line, `","layer":"`...)
		line = append(line, t.layer(s)...)
		line = append(line, `","op":`...)
		line = strconv.AppendInt(line, s.op, 10)
		line = append(line, `,"n":`...)
		line = strconv.AppendInt(line, int64(s.n), 10)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, "}\n"...)
		w.Write(line) //nolint:errcheck // Flush reports the first write error
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is one layer's span accounting in layers.json: the time
// inside its top-level spans, and the part of it no child span covers.
type layerTime struct {
	Spans  int     `json:"spans"`
	SpanMs float64 `json:"span_ms"`
	SelfMs float64 `json:"self_ms"`
}

// layerTimes folds the spans into per-layer totals. A span's self time
// is its duration minus the union of its children's intervals.
func (t *tracer) layerTimes() map[string]layerTime {
	all := t.spans()
	children := make(map[uint64][][2]int64)
	for _, s := range all {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[string]layerTime)
	for _, s := range all {
		layer := t.layer(s)
		lt := out[layer]
		lt.Spans++
		if s.parent == 0 {
			d := s.end - s.start
			lt.SpanMs += float64(d) / 1e6
			lt.SelfMs += float64(d-covered(children[s.id])) / 1e6
		}
		out[layer] = lt
	}
	return out
}

// covered is the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, lo, hi int64
	for i, x := range iv {
		if i == 0 || x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// writeLayers writes dir/layers.json: the per-layer metrics grouped by
// layer (the name before the first dot; end_to_end for names without
// one), with each layer's span times.
func (t *tracer) writeLayers(dir, workload string, seed uint64, metrics map[string]float64) error {
	type layer struct {
		Metrics map[string]float64 `json:"metrics"`
		layerTime
	}
	layers := make(map[string]*layer)
	get := func(name string) *layer {
		if layers[name] == nil {
			layers[name] = &layer{Metrics: make(map[string]float64)}
		}
		return layers[name]
	}
	for name, v := range metrics {
		l, _, found := strings.Cut(name, ".")
		if !found {
			l = "end_to_end"
		}
		get(l).Metrics[name] = v
	}
	for name, lt := range t.layerTimes() {
		get(name).layerTime = lt
	}
	b, err := json.MarshalIndent(map[string]any{
		"workload": workload, "seed": seed, "layers": layers, "dropped_spans": t.dropped.Load(),
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(b, '\n'), 0o644)
}

// traceDir is where a traced run of workload and seed writes its files.
func traceDir(root, workload string, seed uint64) string {
	return filepath.Join(root, fmt.Sprintf("%s-seed%d", workload, seed))
}
