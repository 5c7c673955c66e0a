package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/merkle"
	"repro/internal/sockets"
	"repro/internal/sockets/wire"
	"repro/internal/version"
	"repro/internal/wal"
)

// The traced run times each layer below the cluster from outside, by
// calling that layer's public functions on the workload's own keys,
// values and op mix. Ops that take microseconds get a child span each;
// ops that take nanoseconds are timed and spanned in batches of
// batchOps, because two clock reads would cost as much as the op.

const batchOps = 256

// probeClock is the wall-clock part of every version stamp a probe
// builds, so probe inputs are the same on every run.
const probeClock = 1_754_550_000_000_000_000

// stamp is the version the store would give key's seq-th write: one
// vector slot for its coordinator.
func stamp(key int, seq int64) version.Version {
	return version.Version{VV: version.Vector{fmt.Sprintf("node%d", key%3): uint64(seq + 1)}, Clock: probeClock + seq}
}

// probeOp is one op of the probe stream with the bytes each layer sees:
// the stored replica value a get returns, and for a put the raw value,
// its version, and the stored value it writes.
type probeOp struct {
	key    int
	name   string
	put    bool
	stored string
	raw    string
	ver    version.Version
	next   string
}

// storedValue is what a replica holds for key at seq.
func (b *bench) storedValue(key int, seq int64) string {
	return version.Encode(stamp(key, seq), makeValue(b.in.keys[key], b.in.owner(key), seq, b.o.w.valueSize))
}

// probeStream interleaves the workload's streams into the first
// probeOps ops, and splits out the gets and the puts.
func (b *bench) probeStream() (ops, gets, puts []probeOp) {
	seqs := make(map[int]int64)
	for i := 0; i < b.o.probeOps; i++ {
		s := b.in.streams[i%len(b.in.streams)]
		o := s[(i/len(b.in.streams))%len(s)]
		k := int(o.key)
		p := probeOp{key: k, name: b.in.keys[k], put: o.put, stored: b.storedValue(k, seqs[k])}
		if o.put {
			seqs[k]++
			p.raw = makeValue(p.name, b.in.owner(k), seqs[k], b.o.w.valueSize)
			p.ver = stamp(k, seqs[k])
			p.next = version.Encode(p.ver, p.raw)
			puts = append(puts, p)
		} else {
			gets = append(gets, p)
		}
		ops = append(ops, p)
	}
	return ops, gets, puts
}

// timeOps runs fn over items 0..n-1, passes times, in batches with one
// child span each, and returns the median nanoseconds per item.
func (b *bench) timeOps(parent uint64, name string, n int, fn func(i int)) float64 {
	var per []float64
	passes := max(1, int(b.o.probeTime/(200*time.Millisecond)))
	for pass := 0; pass < passes; pass++ {
		for lo := 0; lo < n; lo += batchOps {
			hi := min(lo+batchOps, n)
			start := time.Now()
			for i := lo; i < hi; i++ {
				fn(i)
			}
			end := time.Now()
			per = append(per, float64(end.Sub(start))/float64(hi-lo))
			b.tr.record(name, b.tr.newID(), parent, int64(lo), hi-lo, start, end)
		}
	}
	return median(per)
}

// allocsPer is the heap allocations per call of fn over items 0..n-1.
func allocsPer(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// sink keeps probed results alive so the compiler cannot drop a call.
var sink int

// observer is the histogram call the metrics probe times.
type observer interface{ Observe(time.Duration) }

// probeLayers runs every layer probe and fills in their metrics.
func (b *bench) probeLayers(m map[string]float64) error {
	ops, gets, puts := b.probeStream()
	if len(gets) == 0 || len(puts) == 0 {
		return fmt.Errorf("probe stream of %d ops has %d gets and %d puts; both kinds are needed", len(ops), len(gets), len(puts))
	}
	hist, err := b.probeSockets(m)
	if err != nil {
		return fmt.Errorf("sockets probe: %w", err)
	}
	m["cluster.overhead_get_us"] = m["cluster.get_p50_us"] - m["sockets.get_p50_us"]
	m["cluster.overhead_put_us"] = m["cluster.put_p50_us"] - m["sockets.setv_p50_us"]
	b.probeWire(m, ops)
	b.probeVersion(m, gets, puts)
	if err := b.probeWAL(m, puts); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if err := b.probeMerkle(m, puts); err != nil {
		return fmt.Errorf("merkle probe: %w", err)
	}
	if err := b.probeDB(m, ops, puts); err != nil {
		return fmt.Errorf("db probe: %w", err)
	}
	b.probeMetrics(m, hist)
	return nil
}

// probeSockets replays the workload's ops against one standalone server
// configured like a cluster node, through a binary pool, as GETs and
// version-conditional SETVs.
func (b *bench) probeSockets(m map[string]float64) (observer, error) {
	parent, done := b.tr.probe("sockets")
	defer done()
	cfg := sockets.ServerConfig{
		Shards: 8, DrainTimeout: time.Second, MaxPending: b.o.w.maxPending,
		SyncExcludePrefix: "hint~",
	}
	if b.o.w.durable {
		cfg.WALDir = filepath.Join(b.o.workDir, "probe-sockets")
		defer os.RemoveAll(cfg.WALDir)
	}
	srv, err := sockets.NewServerConfig("127.0.0.1:0", cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	pool, err := sockets.NewPool(srv.Addr(), sockets.PoolConfig{
		Size: 2, MaxAttempts: 2, Timeout: 500 * time.Millisecond, Proto: sockets.ProtoBinary,
	})
	if err != nil {
		return nil, err
	}
	defer pool.Close()

	ctx := context.Background()
	batch := make([]sockets.KV, 0, 256)
	for k := range b.in.keys {
		batch = append(batch, sockets.KV{Key: b.in.keys[k], Value: b.storedValue(k, 0)})
		if len(batch) == cap(batch) || k == len(b.in.keys)-1 {
			if err := pool.MPutCtx(ctx, batch); err != nil {
				return nil, err
			}
			batch = batch[:0]
		}
	}

	hist := srv.Latency()
	n0, mean0 := hist.Count(), hist.Mean()
	seqs := make([]atomic.Int64, len(b.in.keys))
	workers := min(2, runtime.NumCPU())
	getLat, setLat := make([][]int64, workers), make([][]int64, workers)
	var failures atomic.Int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, t0 := cpuTime(), time.Now()
	end := t0.Add(b.o.probeTime)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A closed-loop client replays its own stream; the open
			// loop's single stream is dealt out between the workers.
			s, i, step := b.in.streams[w%len(b.in.streams)], 0, 1
			if len(b.in.streams) == 1 {
				i, step = w, workers
			}
			for ; time.Now().Before(end); i += step {
				o := s[i%len(s)]
				k := int(o.key)
				var val string
				if o.put {
					seq := seqs[k].Add(1)
					val = version.Encode(stamp(k, seq), makeValue(b.in.keys[k], b.in.owner(k), seq, b.o.w.valueSize))
				}
				opCtx, cancel := context.WithTimeout(ctx, opDeadline)
				start := time.Now()
				var err error
				if o.put {
					_, err = pool.SetVCtx(opCtx, b.in.keys[k], val)
				} else {
					_, _, err = pool.GetCtx(opCtx, b.in.keys[k])
				}
				fin := time.Now()
				cancel()
				if err != nil {
					failures.Add(1)
				}
				name := "sockets.get"
				if o.put {
					name = "sockets.setv"
					setLat[w] = append(setLat[w], int64(fin.Sub(start)))
				} else {
					getLat[w] = append(getLat[w], int64(fin.Sub(start)))
				}
				b.tr.record(name, b.tr.newID(), parent, int64(i), 1, start, fin)
			}
		}(w)
	}
	wg.Wait()
	elapsed, cpu := time.Since(t0), cpuTime()-cpu0
	runtime.ReadMemStats(&after)
	if f := failures.Load(); f > 0 {
		return nil, fmt.Errorf("%d probe requests failed", f)
	}
	var gl, sl []int64
	for w := range getLat {
		gl, sl = append(gl, getLat[w]...), append(sl, setLat[w]...)
	}
	sortSamples(gl)
	sortSamples(sl)
	n := float64(len(gl) + len(sl))
	m["sockets.get_p50_us"] = us(quantile(gl, 0.50))
	m["sockets.get_p99_us"] = us(quantile(gl, 0.99))
	m["sockets.setv_p50_us"] = us(quantile(sl, 0.50))
	m["sockets.setv_p99_us"] = us(quantile(sl, 0.99))
	m["sockets.ops_s"] = n / elapsed.Seconds()
	m["sockets.cpu_us_per_op"] = float64(cpu) / 1e3 / n
	m["sockets.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / n
	// The histogram also saw the preload; difference it out.
	n1, mean1 := hist.Count(), hist.Mean()
	m["sockets.server_mean_us"] = (float64(mean1)*float64(n1) - float64(mean0)*float64(n0)) / float64(n1-n0) / 1e3
	m["sockets.shed"] = float64(srv.Shed())
	return hist, nil
}

// probeWire times the binary codec on the workload's GET and SETV
// request and response shapes.
func (b *bench) probeWire(m map[string]float64, ops []probeOp) {
	parent, done := b.tr.probe("wire")
	defer done()
	reqs, resps := make([]wire.Request, len(ops)), make([]wire.Response, len(ops))
	reqBytes, respBytes := make([][]byte, len(ops)), make([][]byte, len(ops))
	for i, o := range ops {
		id := uint64(i + 1)
		if o.put {
			reqs[i] = wire.Request{Verb: wire.VerbSetV, ID: id, Key: o.name, Value: []byte(o.next)}
			resps[i] = wire.Response{Tag: wire.RespCount, ID: id, N: 1}
		} else {
			reqs[i] = wire.Request{Verb: wire.VerbGet, ID: id, Key: o.name}
			resps[i] = wire.Response{Tag: wire.RespValue, ID: id, Value: []byte(o.stored)}
		}
		reqBytes[i] = wire.AppendRequest(nil, &reqs[i])
		respBytes[i] = wire.AppendResponse(nil, &resps[i])
	}
	var buf, buf2 []byte
	n := len(ops)
	m["wire.req_encode_ns"] = b.timeOps(parent, "wire.req_encode", n, func(i int) {
		buf = wire.AppendRequest(buf[:0], &reqs[i])
	})
	m["wire.req_decode_ns"] = b.timeOps(parent, "wire.req_decode", n, func(i int) {
		r, _ := wire.DecodeRequest(reqBytes[i])
		sink += len(r.Key)
	})
	m["wire.resp_encode_ns"] = b.timeOps(parent, "wire.resp_encode", n, func(i int) {
		buf = wire.AppendResponse(buf[:0], &resps[i])
	})
	m["wire.resp_decode_ns"] = b.timeOps(parent, "wire.resp_decode", n, func(i int) {
		r, _ := wire.DecodeResponse(respBytes[i])
		sink += len(r.Value)
	})
	m["wire.allocs_per_roundtrip"] = allocsPer(n, func(i int) {
		buf = wire.AppendRequest(buf[:0], &reqs[i])
		r, _ := wire.DecodeRequest(buf)
		buf2 = wire.AppendResponse(buf2[:0], &resps[i])
		p, _ := wire.DecodeResponse(buf2)
		sink += len(r.Key) + len(p.Value)
	})
}

// probeVersion times what a quorum read does per answer (Decode, R=2
// of them) and per pick (Newer), and what a write does (Encode).
func (b *bench) probeVersion(m map[string]float64, gets, puts []probeOp) {
	parent, done := b.tr.probe("version")
	defer done()
	const readQuorum = 2
	// A healthy quorum's two answers carry equal versions.
	first, second := make([]version.Version, len(gets)), make([]version.Version, len(gets))
	for i, g := range gets {
		first[i], _, _, _ = version.Decode(g.stored)
		second[i], _, _, _ = version.Decode(g.stored)
	}
	m["version.encode_ns"] = b.timeOps(parent, "version.encode", len(puts), func(i int) {
		sink += len(version.Encode(puts[i].ver, puts[i].raw))
	})
	m["version.decode_ns"] = b.timeOps(parent, "version.decode", readQuorum*len(gets), func(i int) {
		_, v, _, _ := version.Decode(gets[i/readQuorum].stored)
		sink += len(v)
	})
	m["version.newer_ns"] = b.timeOps(parent, "version.newer", len(gets), func(i int) {
		if version.Newer(second[i], first[i]) {
			sink++
		}
	})
	m["version.decode_allocs"] = allocsPer(len(gets), func(i int) {
		_, v, _, _ := version.Decode(gets[i].stored)
		sink += len(v)
	})
}

// probeWAL runs the workload's writes through a fresh log: concurrent
// writers reserving and waiting on group commits, then a timed reopen
// that replays everything they wrote.
func (b *bench) probeWAL(m map[string]float64, puts []probeOp) error {
	parent, done := b.tr.probe("wal")
	defer done()
	dir := filepath.Join(b.o.workDir, "probe-wal")
	defer os.RemoveAll(dir)
	l, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		return err
	}
	workers := min(2, runtime.NumCPU())
	lat := make([][]int64, workers)
	var userBytes, failures atomic.Int64
	end := time.Now().Add(b.o.probeTime)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; time.Now().Before(end); i += workers {
				p := puts[i%len(puts)]
				rec := &wal.Record{Kind: wal.KindSet, Client: uint64(w + 1), ID: uint64(i + 1), Key: p.name, Value: p.next}
				start := time.Now()
				err := l.Begin(rec).Wait()
				fin := time.Now()
				if err != nil {
					failures.Add(1)
				}
				lat[w] = append(lat[w], int64(fin.Sub(start)))
				userBytes.Add(int64(len(p.name) + len(p.raw)))
				b.tr.record("wal.commit", b.tr.newID(), parent, int64(i), 1, start, fin)
			}
		}(w)
	}
	wg.Wait()
	appends, syncs := l.Appends(), l.Syncs()
	if err := l.Close(); err != nil {
		return err
	}
	if f := failures.Load(); f > 0 {
		return fmt.Errorf("%d appends failed", f)
	}
	size, err := walBytes(dir)
	if err != nil {
		return err
	}
	var all []int64
	for _, s := range lat {
		all = append(all, s...)
	}
	sortSamples(all)
	m["wal.commit_p50_us"] = us(quantile(all, 0.50))
	m["wal.commit_p99_us"] = us(quantile(all, 0.99))
	m["wal.records_per_sync"] = float64(appends) / float64(syncs)
	if !b.o.w.durable {
		// No cluster log to measure: report the probe log's bytes per
		// byte of key and value it was given.
		m["wal.bytes_per_user_byte"] = float64(size) / float64(userBytes.Load())
	}

	var replayed atomic.Int64
	start := time.Now()
	l, err = wal.Open(wal.Config{Dir: dir, ReplayWorkers: runtime.GOMAXPROCS(0),
		OnRecord: func(*wal.Record) error { replayed.Add(1); return nil }})
	fin := time.Now()
	if err != nil {
		return err
	}
	b.tr.record("wal.replay", b.tr.newID(), parent, 0, int(replayed.Load()), start, fin)
	if err := l.Close(); err != nil {
		return err
	}
	if replayed.Load() != appends {
		return fmt.Errorf("replayed %d of %d records", replayed.Load(), appends)
	}
	m["wal.replay_records_s"] = float64(appends) / fin.Sub(start).Seconds()
	return nil
}

// probeMerkle times the digest update every applied write makes, and a
// diff walk between two digests of the key space that disagree on 1% of
// its keys.
func (b *bench) probeMerkle(m map[string]float64, puts []probeOp) error {
	parent, done := b.tr.probe("merkle")
	defer done()
	var t merkle.Tree
	m["merkle.apply_ns"] = b.timeOps(parent, "merkle.apply", len(puts), func(i int) {
		t.Apply(puts[i].name, puts[i].stored, puts[i].next, true, true)
	})
	var x, y merkle.Tree
	for k, name := range b.in.keys {
		v := b.storedValue(k, 0)
		x.Apply(name, "", v, false, true)
		if k%100 == 0 {
			v = b.storedValue(k, 1)
		}
		y.Apply(name, "", v, false, true)
	}
	var times []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		leaves, err := merkle.Diff(x.Local(), y.Local(), 64)
		fin := time.Now()
		if err != nil {
			return err
		}
		if len(leaves) == 0 {
			return fmt.Errorf("diff found no divergence")
		}
		times = append(times, float64(fin.Sub(start))/1e6)
		b.tr.record("merkle.diff", b.tr.newID(), parent, int64(rep), 1, start, fin)
	}
	m["merkle.diff_ms"] = median(times)
	return nil
}

// probeDB times the ring work a cluster write does under its exclusive
// lock: placement (NodesFor) and recording the key (Put).
func (b *bench) probeDB(m map[string]float64, ops, puts []probeOp) error {
	parent, done := b.tr.probe("db")
	defer done()
	ring, err := db.NewDHT(64)
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if err := ring.AddNode(fmt.Sprintf("node%d", i)); err != nil {
			return err
		}
	}
	for _, name := range b.in.keys {
		if err := ring.Put(name, ""); err != nil {
			return err
		}
	}
	m["db.nodesfor_ns"] = b.timeOps(parent, "db.nodesfor", len(ops), func(i int) {
		sink += len(ring.NodesFor(ops[i].name, 3))
	})
	m["db.put_ns"] = b.timeOps(parent, "db.put", len(puts), func(i int) {
		if ring.Put(puts[i].name, "") == nil {
			sink++
		}
	})
	return nil
}

// probeMetrics times Observe on the server's own latency histogram from
// two goroutines at once, the contention a node's request path creates.
func (b *bench) probeMetrics(m map[string]float64, h observer) {
	parent, done := b.tr.probe("metrics")
	defer done()
	workers := min(2, runtime.NumCPU())
	per := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			per[w] = b.timeOps(parent, "metrics.observe", b.o.probeOps, func(i int) {
				h.Observe(time.Duration(i) * time.Microsecond)
			})
		}(w)
	}
	wg.Wait()
	m["metrics.observe_ns"] = median(per)
}

// layerWindow derives the cluster, runtime, loadgen and trace metrics
// from the traced window, and the throughput and CPU per op of its
// stretches with spans off.
func (b *bench) layerWindow(m map[string]float64, first, last snapshot, slices []slice) {
	var gets, puts []int64
	getID, putID := b.tr.nameID("cluster.get"), b.tr.nameID("cluster.put")
	for _, s := range b.tr.spans() {
		switch s.name {
		case getID:
			gets = append(gets, s.end-s.start)
		case putID:
			puts = append(puts, s.end-s.start)
		}
	}
	sortSamples(gets)
	sortSamples(puts)
	m["cluster.get_p50_us"] = us(quantile(gets, 0.50))
	m["cluster.get_p99_us"] = us(quantile(gets, 0.99))
	m["cluster.put_p50_us"] = us(quantile(puts, 0.50))
	m["cluster.put_p99_us"] = us(quantile(puts, 0.99))
	kops := float64(b.ok.Load()) / 1e3
	m["cluster.readrepair_per_kop"] = (last.repairs - first.repairs) / kops
	m["cluster.quorum_failures"] = last.qfails - first.qfails
	m["pool.attempts_per_request"] = (last.tries - first.tries) / (last.reqs - first.reqs)

	var on, off slice
	for _, s := range slices {
		side := &off
		if s.traced {
			side = &on
		}
		side.ops += s.ops
		side.wall += s.wall
		side.cpu += s.cpu
		side.mallocs += s.mallocs
		side.bytes += s.bytes
		side.gcs += s.gcs
	}
	offOps := float64(off.ops)
	m["throughput_ops_s"] = offOps / off.wall.Seconds()
	m["cpu_us_per_op"] = float64(off.cpu) / 1e3 / offOps
	m["runtime.allocs_per_op"] = float64(off.mallocs) / offOps
	m["runtime.alloc_bytes_per_op"] = float64(off.bytes) / offOps
	m["runtime.gc_per_kop"] = float64(off.gcs) / (offOps / 1e3)
	m["trace.overhead_pct"] = (float64(on.cpu)/float64(on.ops)/(float64(off.cpu)/offOps) - 1) * 100

	// The open loop's generator lateness is release time minus due
	// time; a closed loop has no schedule, and its generator cost is the
	// gap between one op's return and the next one's send.
	late := b.late
	for _, t := range b.turn {
		late = append(late, t...)
	}
	sortSamples(late)
	m["loadgen.late_p50_us"] = us(quantile(late, 0.50))
	m["loadgen.late_p99_us"] = us(quantile(late, 0.99))
	m["loadgen.dropped"] = float64(b.dropped.Load())
}
