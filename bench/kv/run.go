package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/sockets"
)

// options configure one run.
type options struct {
	w      workload
	seed   uint64
	keys   int
	warmup time.Duration
	window time.Duration
	trace  bool
	// traceRoot holds each traced run's spans.jsonl and layers.json.
	traceRoot string
	// workDir holds WAL directories; the run removes what it creates.
	workDir string
	// probeTime is how long each timed layer probe replays ops, and
	// probeOps how many ops each micro probe replays per pass.
	probeTime time.Duration
	probeOps  int
}

// report is the result line a run prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// failedLatency stands in for the latency of an op that failed, was
// dropped, or read a wrong value: it misses every latency limit.
const failedLatency = math.MaxInt64

type outcome int

const (
	okOp outcome = iota
	failedOp
	wrongOp
)

// bench is one run's state.
type bench struct {
	o   options
	in  *inputs
	chk *checker
	c   *cluster.Cluster
	tr  *tracer // nil unless traced

	// tracing switches spans on and off during a traced window.
	tracing atomic.Bool

	// Window accounting. Only a traced run keeps latency samples, and
	// only of ops sent with spans off. Closed-loop client i appends to
	// reads[i] and writes[i] (nanoseconds, failedLatency for failures);
	// open-loop op j stores into open[j] as latency<<1 | isPut, or
	// leaves notSampled.
	pos           []int
	reads, writes [][]int64
	open          []int64
	turn          [][]int64 // closed loop: gap between an op's return and the next send
	late          []int64   // open loop: release time minus due time
	// failed counts window ops that failed or read a wrong value;
	// wrongInWindow the latter alone.
	ok, failed, dropped, wrongInWindow atomic.Int64
}

// newBench generates the run's inputs.
func newBench(o options) *bench {
	b := &bench{o: o}
	clients := min(2, runtime.NumCPU())
	if o.w.rate > 0 {
		// One generator issues every write, so the writer partition is
		// only the value format's: key k reads as written by k%clients.
		n := int(math.Ceil(o.w.rate * (o.warmup + o.window).Seconds()))
		gap := int(o.w.rate * openWriteGap.Seconds())
		b.in = generate(o.w, o.seed, o.keys, clients, 1, n, gap)
	} else {
		b.in = generate(o.w, o.seed, o.keys, clients, clients, closedStreamLen, 0)
		b.pos = make([]int, clients)
	}
	b.chk = newChecker(b.in, o.w.valueSize)
	return b
}

// notSampled marks an open-loop op that was sent with spans on.
const notSampled = -1

// allocSamples makes room for a traced window's latency samples.
func (b *bench) allocSamples() {
	if b.o.w.rate > 0 {
		b.open = make([]int64, len(b.in.streams[0])-b.warmupOps())
		for j := range b.open {
			b.open[j] = notSampled
		}
		b.late = make([]int64, 0, len(b.open))
		return
	}
	n := len(b.in.streams)
	b.reads, b.writes, b.turn = make([][]int64, n), make([][]int64, n), make([][]int64, n)
	guess := 20000 * b.o.window.Seconds() // room for ~20k ops/s a client before growing
	for i := range b.reads {
		b.reads[i] = make([]int64, 0, int(guess*(1-b.o.w.writeFrac))+1)
		b.writes[i] = make([]int64, 0, int(guess*b.o.w.writeFrac)+1)
	}
}

// warmupOps is how many open-loop ops the warm-up releases.
func (b *bench) warmupOps() int { return int(math.Ceil(b.o.w.rate * b.o.warmup.Seconds())) }

func (b *bench) clusterConfig(walRoot string) cluster.Config {
	return cluster.Config{
		Nodes: 3, Replicas: 3, WriteQuorum: 2, ReadQuorum: 2,
		// The default is still the text protocol; pin the one the store
		// is moving to so that change does not move the yardstick.
		Proto: sockets.ProtoBinary,
		// Slow enough that a GC pause never looks like a dead node.
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  600 * time.Millisecond,
		MaxPending:        b.o.w.maxPending,
		Durable:           b.o.w.durable,
		WALRoot:           walRoot,
	}
}

// setup builds and preloads a cluster setups times, keeps the last one,
// and returns the median set-up time in seconds.
func (b *bench) setup() (float64, error) {
	var times []float64
	for i := 0; i < setups; i++ {
		root := ""
		if b.o.w.durable {
			root = filepath.Join(b.o.workDir, fmt.Sprintf("wal-%d", i))
		}
		start := time.Now()
		c, err := cluster.New(b.clusterConfig(root))
		if err != nil {
			return 0, fmt.Errorf("cluster: %w", err)
		}
		b.chk.reset()
		if err := b.preload(c); err != nil {
			c.Close()
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == setups-1 {
			b.c = c
			break
		}
		c.Close()
		if root != "" {
			if err := os.RemoveAll(root); err != nil {
				return 0, err
			}
		}
	}
	return median(times), nil
}

// preload writes seq 0 of every key.
func (b *bench) preload(c *cluster.Cluster) error {
	var next atomic.Int64
	errs := make(chan error, loaders)
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(b.in.keys) {
					return
				}
				v := makeValue(b.in.keys[i], b.in.owner(i), 0, b.o.w.valueSize)
				var err error
				// A put that misses its deadline is safe to repeat: the
				// retry carries the same value under a newer version.
				for attempt := 0; attempt < 3; attempt++ {
					ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
					err = c.PutCtx(ctx, b.in.keys[i], v)
					cancel()
					if err == nil {
						break
					}
				}
				if err != nil {
					errs <- fmt.Errorf("preload %s: %w", b.in.keys[i], err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// do runs o against the cluster and reports when it was sent, when it
// returned, and how it went. A put writes val as seq; a get is checked
// against what had been acknowledged when it was sent.
func (b *bench) do(o op, seq int64, val string) (start, end time.Time, res outcome) {
	key := int(o.key)
	name := b.in.keys[key]
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	if o.put {
		start = time.Now()
		err := b.c.PutCtx(ctx, name, val)
		end = time.Now()
		if err != nil {
			return start, end, failedOp
		}
		b.chk.ack(key, seq)
		return start, end, okOp
	}
	acked := b.chk.acked[key].Load()
	start = time.Now()
	v, found, err := b.c.GetCtx(ctx, name)
	end = time.Now()
	switch {
	case err != nil:
		return start, end, failedOp
	case !b.chk.checkRead(key, v, found, acked):
		return start, end, wrongOp
	}
	return start, end, okOp
}

// span records a traced cluster call.
func (b *bench) span(o op, id int64, start, end time.Time) {
	name := "cluster.get"
	if o.put {
		name = "cluster.put"
	}
	b.tr.record(name, b.tr.newID(), 0, id, 1, start, end)
}

// count tallies one window op and returns its latency sample.
func (b *bench) count(res outcome, lat time.Duration) int64 {
	switch res {
	case okOp:
		b.ok.Add(1)
		return int64(lat)
	case wrongOp:
		b.wrongInWindow.Add(1)
	}
	b.failed.Add(1)
	return failedLatency
}

// closedLoop runs every client for d, each sending its next op when the
// last returns. Ops are timed from their send and counted if record.
func (b *bench) closedLoop(d time.Duration, record bool) {
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for cl := range b.in.streams {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			ops := b.in.streams[cl]
			var last time.Time
			for time.Now().Before(end) {
				o := ops[b.pos[cl]%len(ops)]
				b.pos[cl]++
				var seq int64
				var val string
				if o.put {
					seq, val = b.chk.nextValue(int(o.key))
				}
				traced := b.tr != nil && b.tracing.Load()
				start, fin, res := b.do(o, seq, val)
				if traced {
					b.span(o, int64(b.pos[cl]), start, fin)
				}
				if !record {
					continue
				}
				lat := b.count(res, fin.Sub(start))
				if b.tr != nil && !traced {
					if o.put {
						b.writes[cl] = append(b.writes[cl], lat)
					} else {
						b.reads[cl] = append(b.reads[cl], lat)
					}
					if !last.IsZero() {
						b.turn[cl] = append(b.turn[cl], int64(start.Sub(last)))
					}
				}
				last = fin
			}
		}(cl)
	}
	wg.Wait()
}

// openLoop releases the open-loop stream on a 1 ms grid at the
// workload's rate, each op on its own goroutine, and times every op
// from when it was due: a late generator charges its lateness to the
// ops. The first warmup's worth of ops are not recorded; begin is
// called as the first recorded op is released. It returns when every
// op has.
func (b *bench) openLoop(begin func()) {
	ops := b.in.streams[0]
	warm := b.warmupOps()
	interval := float64(time.Second) / b.o.w.rate
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, o := range ops {
		due := start.Add(time.Duration(math.Ceil(float64(i)*interval/float64(time.Millisecond))) * time.Millisecond)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		j := i - warm // index among recorded ops; negative in the warm-up
		if j == 0 {
			begin()
		}
		traced := b.tr != nil && b.tracing.Load()
		sample := j >= 0 && b.tr != nil && !traced
		if j >= 0 && b.tr != nil {
			b.late = append(b.late, int64(time.Since(due)))
		}
		if inflight.Load() >= openInFlight {
			if j >= 0 {
				b.dropped.Add(1)
			}
			if sample {
				b.open[j] = failedLatency
			}
			continue
		}
		var seq int64
		var val string
		if o.put {
			seq, val = b.chk.nextValue(int(o.key))
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i, j int, o op, seq int64, val string, due time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			start, end, res := b.do(o, seq, val)
			if traced {
				b.span(o, int64(i), start, end)
			}
			if j < 0 {
				return
			}
			lat := b.count(res, end.Sub(due))
			if !sample {
				return
			}
			if lat != failedLatency {
				lat <<= 1
				if o.put {
					lat |= 1
				}
			}
			b.open[j] = lat
		}(i, j, o, seq, val, due)
	}
	wg.Wait()
}

// snapshot is the process and cluster state at one edge of the window.
type snapshot struct {
	at                  time.Time
	cpu                 time.Duration
	mallocs, bytes, gcs uint64
	repairs             float64
	qfails              float64
	tries               float64
	reqs                float64
}

func (b *bench) snap() snapshot {
	s := snapshot{at: time.Now(), cpu: cpuTime()}
	if b.tr != nil {
		// runtime/metrics, unlike ReadMemStats, reads these without
		// stopping the world, which a traced window does every slice.
		rt := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"},
			{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
		rtmetrics.Read(rt)
		s.mallocs = rt[0].Value.Uint64() + rt[1].Value.Uint64()
		s.bytes, s.gcs = rt[2].Value.Uint64(), rt[3].Value.Uint64()
		cs, ps := b.c.Counters(), b.c.PoolCounters()
		s.repairs, _ = cs.Get("readrepair.writes")
		s.qfails, _ = cs.Get("cluster.quorum-failures")
		s.tries, _ = ps.Get("pool.attempts")
		s.reqs, _ = ps.Get("pool.requests")
	}
	return s
}

// slice is one stretch of a traced window with spans on or off.
type slice struct {
	traced  bool
	ops     int64
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint64
}

// alternate switches spans on and off every traceSlice until stop is
// closed, and returns what each stretch cost. Alternating on one run's
// traffic cancels the drift a separate untraced run would add.
func (b *bench) alternate(stop <-chan struct{}) []slice {
	var out []slice
	prev := b.snap()
	prevOps := b.ok.Load()
	b.tracing.Store(true)
	t := time.NewTicker(traceSlice)
	defer t.Stop()
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		case <-t.C:
		}
		cur, ops := b.snap(), b.ok.Load()
		out = append(out, slice{traced: b.tracing.Load(), ops: ops - prevOps, wall: cur.at.Sub(prev.at), cpu: cur.cpu - prev.cpu,
			mallocs: cur.mallocs - prev.mallocs, bytes: cur.bytes - prev.bytes, gcs: cur.gcs - prev.gcs})
		b.tracing.Store(!b.tracing.Load())
		prev, prevOps = cur, ops
	}
	b.tracing.Store(false)
	return out
}

// runWindow runs the warm-up and the measured window and returns the
// window's edges, plus the traced run's slices. The last edge is taken
// once every op has returned, the open loop's final ones included.
func (b *bench) runWindow() (first, last snapshot, slices []slice) {
	var stop chan struct{}
	var sliced chan []slice
	begin := func() {
		first = b.snap()
		if b.tr != nil {
			stop, sliced = make(chan struct{}), make(chan []slice, 1)
			go func() { sliced <- b.alternate(stop) }()
		}
	}
	if b.o.w.rate > 0 {
		b.openLoop(begin)
	} else {
		b.closedLoop(b.o.warmup, false)
		begin()
		b.closedLoop(b.o.window, true)
	}
	if stop != nil {
		close(stop)
		slices = <-sliced
	}
	return first, b.snap(), slices
}

// latencies splits the window's samples into sorted reads and writes.
func (b *bench) latencies() (reads, writes []int64) {
	if b.o.w.rate > 0 {
		for _, v := range b.open {
			switch {
			case v == notSampled:
			case v == failedLatency:
				// A failure is charged to both kinds: it missed every limit.
				reads, writes = append(reads, v), append(writes, v)
			case v&1 == 1:
				writes = append(writes, v>>1)
			default:
				reads = append(reads, v>>1)
			}
		}
	} else {
		for i := range b.reads {
			reads = append(reads, b.reads[i]...)
			writes = append(writes, b.writes[i]...)
		}
	}
	return sortSamples(reads), sortSamples(writes)
}

// readback reads keys after every write has returned and checks each
// shows its last acknowledged value.
func (b *bench) readback(keys []int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(keys) {
					return
				}
				k := keys[i]
				var (
					v     string
					found bool
					err   error
				)
				for attempt := 0; attempt < 3; attempt++ {
					ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
					v, found, err = b.c.GetCtx(ctx, b.in.keys[k])
					cancel()
					if err == nil {
						break
					}
				}
				if err != nil {
					b.chk.count(fmt.Errorf("%s: unreadable after the window: %v", b.in.keys[k], err))
					continue
				}
				b.chk.checkFinal(k, v, found)
			}
		}()
	}
	wg.Wait()
}

// syncQuiet runs anti-entropy passes until one repairs nothing.
func (b *bench) syncQuiet() error {
	for pass := 0; pass < 64; pass++ {
		n, err := b.c.SyncNow(context.Background())
		if err != nil {
			return fmt.Errorf("anti-entropy: %w", err)
		}
		if n == 0 {
			return nil
		}
	}
	return errors.New("anti-entropy still repairing after 64 passes")
}

// faults kill -9s and restarts each node in turn, then (durable
// workloads) wipes one node's log and rebuilds it from its peers. Each
// recovery is timed from Restart until an anti-entropy pass finds
// nothing to repair. A memory-only node always restarts empty, so there
// a restart is already a full rebuild and rebuild_s reports the same
// measurement as recovery_s.
func (b *bench) faults() (recovery, rebuild float64, err error) {
	var cycles []float64
	for _, n := range b.c.Nodes() {
		if err := b.c.Kill(n); err != nil {
			return 0, 0, err
		}
		start := time.Now()
		if err := b.c.Restart(n); err != nil {
			return 0, 0, err
		}
		if err := b.syncQuiet(); err != nil {
			return 0, 0, err
		}
		cycles = append(cycles, time.Since(start).Seconds())
	}
	recovery = median(cycles)
	if !b.o.w.durable {
		return recovery, recovery, nil
	}
	victim := b.c.Nodes()[1]
	if err := b.c.Kill(victim); err != nil {
		return 0, 0, err
	}
	if err := b.c.WipeWAL(victim); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if err := b.c.Restart(victim); err != nil {
		return 0, 0, err
	}
	if err := b.syncQuiet(); err != nil {
		return 0, 0, err
	}
	rebuild = time.Since(start).Seconds()
	if b.c.AntiEntropyStreams() == 0 {
		return 0, 0, errors.New("the wiped node was rebuilt without a WAL stream")
	}
	return recovery, rebuild, nil
}

// walBytes sums the sizes of the files under dir.
func walBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// liveBytes is the user data the store holds: every key and its value.
func (b *bench) liveBytes() int64 {
	return int64(len(b.in.keys)) * int64(len(b.in.keys[0])+b.o.w.valueSize)
}

// run performs one benchmark run and returns its report.
func run(o options) (*report, error) {
	b := newBench(o)
	// heap_mb is the heap the store adds on top of the generated inputs;
	// an untraced run allocates nothing of its own after this baseline.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseHeap := ms.HeapAlloc
	if o.trace {
		b.allocSamples()
		b.tr = newTracer(1 << 19)
	}

	setupS, err := b.setup()
	if err != nil {
		return nil, err
	}
	defer func() {
		if b.c != nil {
			b.c.Close()
		}
	}()
	first, last, slices := b.runWindow()
	window := last.at.Sub(first.at)
	ok, failed, dropped := b.ok.Load(), b.failed.Load(), b.dropped.Load()
	attempted := ok + failed + dropped
	fmt.Fprintf(os.Stderr, "kvbench: %s window %.1fs: %d ok, %d failed (%d of them wrong values), %d dropped\n",
		b.o.w.name, window.Seconds(), ok, failed, b.wrongInWindow.Load(), dropped)
	if ok == 0 {
		return nil, errors.New("no op succeeded in the window")
	}

	m := make(map[string]float64)
	if !o.trace {
		m["setup_s"] = setupS
		runtime.GC()
		runtime.ReadMemStats(&ms)
		m["heap_mb"] = float64(int64(ms.HeapAlloc)-int64(baseHeap)) / 1e6
	} else {
		reads, writes := b.latencies()
		fmt.Fprintf(os.Stderr, "kvbench:   spans off: reads %s\nkvbench:   spans off: writes %s\n", describe(reads), describe(writes))
		m["read_p50_us"] = us(quantile(reads, 0.50))
		m["read_p90_us"] = us(quantile(reads, 0.90))
		m["read_p99_us"] = us(quantile(reads, 0.99))
		m["write_p50_us"] = us(quantile(writes, 0.50))
		m["write_p90_us"] = us(quantile(writes, 0.90))
		m["write_p99_us"] = us(quantile(writes, 0.99))
		b.layerWindow(m, first, last, slices)
		if b.o.w.durable {
			var total int64
			for _, n := range b.c.Nodes() {
				dir, err := b.c.WALDir(n)
				if err != nil {
					return nil, err
				}
				size, err := walBytes(dir)
				if err != nil {
					return nil, err
				}
				total += size
			}
			m["wal.bytes_per_user_byte"] = float64(total) / float64(b.liveBytes())
		}
	}

	b.readback(b.chk.written())
	if o.trace {
		start := time.Now()
		if m["recovery_s"], m["rebuild_s"], err = b.faults(); err != nil {
			return nil, err
		}
		all := make([]int, len(b.in.keys))
		for i := range all {
			all[i] = i
		}
		b.readback(all)
		fmt.Fprintf(os.Stderr, "kvbench:   faults and checks %.1fs\n", time.Since(start).Seconds())
	}
	fmt.Fprintf(os.Stderr, "kvbench:   setup %.2fs\n", setupS)
	b.c.Close()
	b.c = nil

	// Wrong values outside the window (warm-up reads, read-backs) fail
	// the run too.
	wrong := b.chk.wrong.Load()
	if wrong > 0 {
		fmt.Fprintf(os.Stderr, "kvbench: %d wrong values; first: %s\n", wrong, b.chk.firstBad)
	}
	failed += dropped + wrong - b.wrongInWindow.Load()
	if o.trace {
		m["error_rate"] = float64(failed) / float64(attempted)
		if err := b.probeLayers(m); err != nil {
			return nil, err
		}
		dir := traceDir(o.traceRoot, b.o.w.name, o.seed)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := b.tr.writeSpans(dir); err != nil {
			return nil, err
		}
		if err := b.tr.writeLayers(dir, b.o.w.name, o.seed, m); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "kvbench: wrote %d spans (%d dropped) to %s\n", len(b.tr.spans()), b.tr.dropped.Load(), dir)
	}

	rep := &report{Correct: wrong == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric)}
	for _, d := range metricDefs {
		if d.endToEnd == o.trace {
			continue
		}
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return rep, nil
}
