// Package repro's root benchmark harness regenerates every experiment in
// DESIGN.md's per-experiment index: one benchmark per Table I lab, per
// Table II / Table III topic row, the CS40/CS87 experiments, and the
// ablations. Custom metrics (miss rates, speedups, stall counts, I/Os)
// are attached with b.ReportMetric so `go test -bench=. -benchmem`
// prints the rows EXPERIMENTS.md records.
package repro

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bits"
	"repro/internal/bomb"
	"repro/internal/classic"
	"repro/internal/clist"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/db"
	"repro/internal/dfs"
	"repro/internal/dsm"
	"repro/internal/iomodel"
	"repro/internal/isa"
	"repro/internal/life"
	"repro/internal/logic"
	"repro/internal/mapreduce"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/minicc"
	"repro/internal/mp"
	"repro/internal/omp"
	"repro/internal/pram"
	"repro/internal/proc"
	"repro/internal/psort"
	"repro/internal/pthread"
	"repro/internal/sched"
	"repro/internal/shell"
	"repro/internal/simd"
	"repro/internal/sockets"
	"repro/internal/version"
)

// --- Table I: the CS31 labs ---

// BenchmarkTableI_DataRepresentation exercises the conversion and
// fixed-width arithmetic core of lab 1.
func BenchmarkTableI_DataRepresentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := uint64(i) * 2654435761 % (1 << 32)
		s := bits.FormatBinary(v, 32)
		back, err := bits.ParseBinary(s)
		if err != nil || back != v {
			b.Fatal("round trip failed")
		}
		x := bits.NewInt(int64(int32(v)), 32)
		y := bits.NewInt(int64(i%1000)-500, 32)
		if _, _, err := bits.Add(x, y); err != nil {
			b.Fatal(err)
		}
		if _, _, err := bits.Mul(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI_ALU runs the gate-level 32-bit ALU across its ops and
// reports its structural stats.
func BenchmarkTableI_ALU(b *testing.B) {
	alu := logic.NewALU(32)
	depth, err := alu.Circuit.Depth(alu.Zero)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(alu.Circuit.GateCount()), "gates")
	b.ReportMetric(float64(depth), "depth")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := logic.ALUOp(i % 7)
		if _, _, err := alu.Run(uint64(i)*77, uint64(i)*13+5, op); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI_BitVector runs the sieve from the bit-vector lab.
func BenchmarkTableI_BitVector(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := len(bits.Sieve(10000)); got != 1229 {
			b.Fatalf("π(10000) = %d", got)
		}
	}
}

// BenchmarkTableI_BinaryBomb generates and fully defuses a bomb per
// iteration (assembler + CPU under the hood).
func BenchmarkTableI_BinaryBomb(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bm, err := bomb.New(i % 16)
		if err != nil {
			b.Fatal(err)
		}
		ok, err := bm.Defused(bm.Solutions())
		if err != nil || !ok {
			b.Fatalf("defuse failed: %v", err)
		}
	}
}

// BenchmarkTableI_GameOfLife is the sequential lab's timing experiment.
func BenchmarkTableI_GameOfLife(b *testing.B) {
	g, err := life.NewGrid(256, 256, life.Torus)
	if err != nil {
		b.Fatal(err)
	}
	g.Seed(0.3, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Step()
	}
	b.ReportMetric(float64(g.Population()), "population")
}

// BenchmarkTableI_CList runs the append/insert/pop workload of the
// Python-lists-in-C lab.
func BenchmarkTableI_CList(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := clist.New(clist.CPython{})
		for j := 0; j < 1000; j++ {
			l.Append(int64(j))
		}
		for j := 0; j < 100; j++ {
			if err := l.Insert(j, int64(j)); err != nil {
				b.Fatal(err)
			}
		}
		for l.Len() > 0 {
			if _, err := l.Pop(-1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTableI_Shell runs fork/exec/wait pipelines on the simulated
// kernel.
func BenchmarkTableI_Shell(b *testing.B) {
	sh, err := shell.New()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sh.Run(`seq 20 | grep 1 | wc`); err != nil {
			b.Fatal(err)
		}
	}
	if z := sh.Kernel.ZombieCount(); z != 0 {
		b.Fatalf("leaked %d zombies", z)
	}
}

// BenchmarkTableI_ParallelLife is the headline scalability study: one
// parallel generation step per iteration at 4 threads, with the measured
// speedup attached as a metric.
func BenchmarkTableI_ParallelLife(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			g, err := life.NewGrid(256, 256, life.Torus)
			if err != nil {
				b.Fatal(err)
			}
			g.Seed(0.3, 42)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if threads == 1 {
					g.Step()
				} else if err := g.StepNParallel(1, threads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table II: CS31 TCPP topic rows ---

// BenchmarkTableII_MemoryHierarchy replays the locality experiment and
// reports both miss rates.
func BenchmarkTableII_MemoryHierarchy(b *testing.B) {
	var rowMiss, colMiss float64
	for i := 0; i < b.N; i++ {
		row, _ := mem.NewCache(mem.CacheConfig{SizeBytes: 4096, BlockBytes: 64, Assoc: 1})
		col, _ := mem.NewCache(mem.CacheConfig{SizeBytes: 4096, BlockBytes: 64, Assoc: 1})
		mem.ReplayCache(row, mem.RowMajorTrace(64, 0))
		mem.ReplayCache(col, mem.ColMajorTrace(64, 0))
		rowMiss, colMiss = row.Stats().MissRate(), col.Stats().MissRate()
	}
	b.ReportMetric(100*rowMiss, "row-miss-%")
	b.ReportMetric(100*colMiss, "col-miss-%")
}

// BenchmarkTableII_Coherence runs the false-sharing experiment and
// reports the packed/padded invalidation ratio.
func BenchmarkTableII_Coherence(b *testing.B) {
	var r coherence.FalseSharingResult
	for i := 0; i < b.N; i++ {
		r = coherence.FalseSharingExperiment(coherence.MESI, 4, 64, 100)
	}
	b.ReportMetric(float64(r.PackedInvalidations), "packed-inval")
	b.ReportMetric(float64(r.PaddedInvalidations), "padded-inval")
}

// BenchmarkTableII_Schedulers compares the five schedulers on a mixed
// workload.
func BenchmarkTableII_Schedulers(b *testing.B) {
	jobs := make([]proc.Job, 30)
	for i := range jobs {
		jobs[i] = proc.Job{
			Name:     fmt.Sprintf("j%d", i),
			Arrival:  int64(i * 3),
			Burst:    int64(1 + (i*7)%20),
			Priority: i % 5,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := proc.CompareSchedulers(jobs, 4, []int64{2, 4, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_SyncProblems runs the producer/consumer conservation
// workload on the pthread primitives.
func BenchmarkTableII_SyncProblems(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := classic.RunProducersConsumers(4, 4, 8, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_Pipeline measures CPI with and without forwarding on
// the dependent-chain microbenchmark.
func BenchmarkTableII_Pipeline(b *testing.B) {
	src := "main:\n  movl $0, %eax\n"
	for i := 0; i < 200; i++ {
		src += "  addl $1, %eax\n"
	}
	src += "  halt\n"
	trace, _, err := isa.TraceProgram(src, nil, 100000)
	if err != nil {
		b.Fatal(err)
	}
	var cpiFwd, cpiNoFwd float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fwd := isa.SimulatePipeline(trace, isa.PipelineConfig{Forwarding: true, Branch: isa.PredictNotTaken})
		nofwd := isa.SimulatePipeline(trace, isa.PipelineConfig{Forwarding: false, Branch: isa.PredictNotTaken})
		cpiFwd, cpiNoFwd = fwd.CPI(), nofwd.CPI()
	}
	b.ReportMetric(cpiFwd, "cpi-fwd")
	b.ReportMetric(cpiNoFwd, "cpi-nofwd")
}

// BenchmarkTableII_MessagePassing is the ping-pong latency microbenchmark
// of the distributed-basics row.
func BenchmarkTableII_MessagePassing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		err := mp.Run(2, func(c *mp.Comm) error {
			const rounds = 100
			other := 1 - c.Rank()
			for r := 0; r < rounds; r++ {
				if c.Rank() == 0 {
					if err := c.Send(other, 0, []int64{int64(r)}); err != nil {
						return err
					}
					if _, err := c.Recv(other, 0); err != nil {
						return err
					}
				} else {
					m, err := c.Recv(other, 0)
					if err != nil {
						return err
					}
					if err := c.Send(other, 0, m.Data); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table III: CS41 rows ---

// BenchmarkTableIII_PRAM runs the EREW scan and the CRCW max, reporting
// their step counts (the parallel-time separation).
func BenchmarkTableIII_PRAM(b *testing.B) {
	xs := make([]int64, 4096)
	for i := range xs {
		xs[i] = int64(i % 97)
	}
	small := xs[:64]
	var scanSteps, maxSteps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, m, err := pram.ExclusiveScan(pram.EREW, xs)
		if err != nil {
			b.Fatal(err)
		}
		scanSteps = m.Steps()
		_, m2, err := pram.Max(pram.CRCWCommon, small)
		if err != nil {
			b.Fatal(err)
		}
		maxSteps = m2.Steps()
	}
	b.ReportMetric(float64(scanSteps), "scan-steps")
	b.ReportMetric(float64(maxSteps), "crcw-max-steps")
}

// BenchmarkTableIII_Paradigms covers divide & conquer (merge sort),
// blocking (tiled matmul), and out-of-core (external sort I/Os).
func BenchmarkTableIII_Paradigms(b *testing.B) {
	b.Run("scan", func(b *testing.B) {
		xs := make([]int64, 100000)
		for i := range xs {
			xs[i] = int64(i % 13)
		}
		for i := 0; i < b.N; i++ {
			if _, err := psort.ParallelScan(xs, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("blocked-matmul", func(b *testing.B) {
		a, m := psort.NewMatrix(96), psort.NewMatrix(96)
		a.FillSequential()
		m.FillSequential()
		for i := 0; i < b.N; i++ {
			if _, err := psort.MatMulBlocked(a, m, 32); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("external-sort", func(b *testing.B) {
		var ios int64
		for i := 0; i < b.N; i++ {
			dev, _ := iomodel.NewDevice(16)
			xs := make([]int64, 20000)
			for j := range xs {
				xs[j] = int64((j * 2654435761) % 100000)
			}
			in := dev.NewFileFrom(xs)
			dev.ResetCounters()
			_, st, err := iomodel.ExternalMergeSort(in, 512, 0)
			if err != nil {
				b.Fatal(err)
			}
			ios = st.IOs
		}
		b.ReportMetric(float64(ios), "block-IOs")
	})
}

// BenchmarkTableIII_MergeSortModels runs the unifying example: one input
// measured in all three models, reporting comparisons, span, and I/Os.
func BenchmarkTableIII_MergeSortModels(b *testing.B) {
	const n = 1 << 15
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64((i * 40503) % 65536)
	}
	var comps, span, ios int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, c := psort.MergeSort(xs)
		comps = c
		_, s, err := psort.MergeSortDAG(1024, true)
		if err != nil {
			b.Fatal(err)
		}
		span = s
		dev, _ := iomodel.NewDevice(64)
		in := dev.NewFileFrom(xs)
		dev.ResetCounters()
		_, st, err := iomodel.ExternalMergeSort(in, 4096, 0)
		if err != nil {
			b.Fatal(err)
		}
		ios = st.IOs
	}
	b.ReportMetric(float64(comps), "ram-comparisons")
	b.ReportMetric(float64(span), "parallel-span(n=1024)")
	b.ReportMetric(float64(ios), "io-transfers")
}

// --- CS40 / CS87 experiments ---

// BenchmarkCS40_Reduction compares the reduction addressing schemes.
func BenchmarkCS40_Reduction(b *testing.B) {
	xs := make([]float64, 1<<13)
	for i := range xs {
		xs[i] = float64(i % 7)
	}
	for _, scheme := range []simd.ReductionScheme{simd.Interleaved, simd.Sequential} {
		b.Run(scheme.String(), func(b *testing.B) {
			var st simd.Stats
			for i := 0; i < b.N; i++ {
				_, s, err := simd.Reduce(xs, 128, scheme)
				if err != nil {
					b.Fatal(err)
				}
				st = s
			}
			b.ReportMetric(100*st.DivergenceRate(), "divergence-%")
		})
	}
}

// BenchmarkCS87_Allreduce scales the collective across world sizes.
func BenchmarkCS87_Allreduce(b *testing.B) {
	for _, p := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("ranks=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := mp.Run(p, func(c *mp.Comm) error {
					_, err := c.Allreduce([]int64{int64(c.Rank())}, func(a, x int64) int64 { return a + x })
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCS87_MapReduce runs word count with a combiner.
func BenchmarkCS87_MapReduce(b *testing.B) {
	docs := make([]string, 16)
	for i := range docs {
		docs[i] = "parallel distributed computing threads barriers messages " +
			"speedup efficiency amdahl gustafson cache coherence"
	}
	for i := 0; i < b.N; i++ {
		_, _, err := mapreduce.Run(
			mapreduce.Config{Workers: 4, Reducers: 4, Combiner: mapreduce.WordCountReduce},
			docs, mapreduce.WordCountMap, mapreduce.WordCountReduce)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCS87_KVServerSharding drives the single-lock and sharded KV
// servers end-to-end with 8 concurrent clients over real loopback
// sockets. On few-core hosts the wire cost dominates and flattens the
// gap; BenchmarkShardedStoreVsSingleLock in internal/sockets isolates
// the store itself, where striping beats the global lock even on one
// core.
func BenchmarkCS87_KVServerSharding(b *testing.B) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"single-lock", 1}, {"sharded-16", 16}} {
		b.Run(tc.name, func(b *testing.B) {
			s, err := sockets.NewServerConfig("127.0.0.1:0", sockets.ServerConfig{Shards: tc.shards})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			const clients = 8
			conns := make([]*sockets.Client, clients)
			for i := range conns {
				c, err := sockets.Dial(s.Addr())
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				conns[i] = c
			}
			per := b.N/clients + 1
			b.ResetTimer()
			var wg sync.WaitGroup
			for i, c := range conns {
				wg.Add(1)
				go func(i int, c *sockets.Client) {
					defer wg.Done()
					for j := 0; j < per; j++ {
						key := fmt.Sprintf("k%d-%d", i, j%64)
						if j%2 == 0 {
							if err := c.Set(key, "v"); err != nil {
								b.Error(err)
								return
							}
						} else if _, _, err := c.Get(key); err != nil {
							b.Error(err)
							return
						}
					}
				}(i, c)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(clients*per)/b.Elapsed().Seconds(), "ops/sec")
		})
	}
}

// setvPool gives the binary arm of BenchmarkKVProto a Set: the Pool's
// one single-key write is SETV, so each write carries a fresh stamp.
type setvPool struct {
	*sockets.Pool
	seq atomic.Int64
}

func (p *setvPool) Set(key, value string) error {
	n := p.seq.Add(1)
	_, err := p.SetVCtx(context.Background(), key,
		version.Encode(version.Version{VV: version.Vector{"bench": uint64(n)}, Clock: n}, value))
	return err
}

// BenchmarkKVProto is the E14 wire-protocol study: the same 50/50
// write/GET workload over four lab Clients on the text protocol (SET;
// worker w uses client w%4, whose mutex admits one request per
// connection turn, so 64 workers queue behind 4 conns) and over one
// Pool on the binary protocol (stamped SETV; every worker's request
// pipelined onto one shared connection, responses matched by
// correlation ID). The in-flight axis
// is the point: at 1 the protocols differ only in framing cost; at 64
// pipelining should dominate — the acceptance bar is >=2x text
// throughput at 64 in-flight ops.
func BenchmarkKVProto(b *testing.B) {
	type kv interface {
		Set(key, value string) error
		Get(key string) (string, bool, error)
	}
	for _, proto := range []string{"text", "binary"} {
		for _, inflight := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/inflight=%d", proto, inflight), func(b *testing.B) {
				s, err := sockets.NewServerConfig("127.0.0.1:0", sockets.ServerConfig{Shards: 16})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				var conns []kv
				if proto == "text" {
					for i := 0; i < 4; i++ {
						c, err := sockets.Dial(s.Addr())
						if err != nil {
							b.Fatal(err)
						}
						defer c.Close()
						conns = append(conns, c)
					}
				} else {
					p, err := sockets.NewPool(s.Addr(), sockets.PoolConfig{})
					if err != nil {
						b.Fatal(err)
					}
					defer p.Close()
					conns = append(conns, &setvPool{Pool: p})
				}
				per := b.N/inflight + 1
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < inflight; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						c := conns[w%len(conns)]
						for j := 0; j < per; j++ {
							key := fmt.Sprintf("k%d-%d", w, j%64)
							if j%2 == 0 {
								if err := c.Set(key, "value-payload"); err != nil {
									b.Error(err)
									return
								}
							} else if _, _, err := c.Get(key); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(inflight*per)/b.Elapsed().Seconds(), "ops/sec")
			})
		}
	}
}

// BenchmarkCS87_ReplicatedKV runs a put/get workload with one failover.
func BenchmarkCS87_ReplicatedKV(b *testing.B) {
	scenario := dfs.Scenario{
		"put a 1", "put b 2", "get a 1", "crash", "get b 2", "put c 3", "get c 3",
	}
	for i := 0; i < b.N; i++ {
		if _, err := (dfs.Cluster{Replicas: 3, Heartbeat: 50_000_000}).Run(scenario); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: the curriculum tables themselves ---

// BenchmarkCurriculumTables regenerates Tables I-III and validates the
// prerequisite DAG.
func BenchmarkCurriculumTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cu, err := core.Swarthmore()
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range []func() (string, error){cu.TableI, cu.TableII, cu.TableIII} {
			if _, err := f(); err != nil {
				b.Fatal(err)
			}
		}
		if _, ok := cu.ParallelEverySemester(core.Semester{Fall: false, Year: 2014}, 8); !ok {
			b.Fatal("schedule check failed")
		}
	}
}

// --- Ablations (DESIGN.md section 4) ---

// BenchmarkAblation_ParallelMerge compares serial-merge and
// parallel-merge merge sort spans via the DAG algebra plus wall clock.
func BenchmarkAblation_ParallelMerge(b *testing.B) {
	xs := make([]int64, 1<<16)
	for i := range xs {
		xs[i] = int64((i * 31) % 65536)
	}
	b.Run("serial-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			psort.ParallelMergeSort(xs, 4)
		}
		_, span, _ := psort.MergeSortDAG(1<<16, false)
		b.ReportMetric(float64(span), "span")
	})
	b.Run("parallel-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			psort.ParallelMergeSortPM(xs, 4)
		}
		_, span, _ := psort.MergeSortDAG(1<<16, true)
		b.ReportMetric(float64(span), "span")
	})
}

// BenchmarkSortbench is the scheduler ablation behind cmd/sortbench:
// the same merge sort through the old goroutine-per-fork runtime and
// through an 8-worker work-stealing pool, identical fork depth. The
// pool variant also reports its steal/task counters — the whole point
// of the shared runtime is that load balance becomes measurable.
func BenchmarkSortbench(b *testing.B) {
	xs := make([]int64, 1<<17)
	for i := range xs {
		xs[i] = int64((i * 2654435761) % 1000003)
	}
	const depth = 4
	b.Run("spawn-per-fork", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			psort.ParallelMergeSortSpawn(xs, depth)
		}
	})
	b.Run("sched-8workers", func(b *testing.B) {
		pool := sched.New(8)
		defer pool.Close()
		before := pool.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			psort.ParallelMergeSortOn(pool, xs, depth)
		}
		b.StopTimer()
		st := pool.Stats().Sub(before)
		b.ReportMetric(float64(st.Tasks)/float64(b.N), "tasks/op")
		b.ReportMetric(float64(st.Steals)/float64(b.N), "steals/op")
		b.ReportMetric(st.StealRate(), "steal-rate")
	})
}

// BenchmarkDAGExecute runs Brent's theorem as an experiment: a depth-8
// fork-join DAG executed on 1 and 4 workers, reporting achieved vs
// ideal speedup from the same run.
func BenchmarkDAGExecute(b *testing.B) {
	g := dag.New()
	var build func(d int) dag.Fragment
	build = func(d int) dag.Fragment {
		if d == 0 {
			return dag.Leaf(g, 1, "leaf")
		}
		return dag.Seq(dag.Par(g, build(d-1), build(d-1)), dag.Leaf(g, int64(d), "join"))
	}
	build(8)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var rep dag.ExecReport
			for i := 0; i < b.N; i++ {
				r, err := dag.Execute(g, workers, time.Microsecond)
				if err != nil {
					b.Fatal(err)
				}
				rep = r
			}
			b.ReportMetric(rep.AchievedSpeedup, "achieved-speedup")
			b.ReportMetric(rep.IdealSpeedup, "ideal-speedup")
			b.ReportMetric(float64(rep.Sched.Steals), "steals")
		})
	}
}

// BenchmarkAblation_ReductionAddressing is the CS40 divergence ablation
// at bench granularity.
func BenchmarkAblation_ReductionAddressing(b *testing.B) {
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = 1
	}
	var inter, seq int64
	for i := 0; i < b.N; i++ {
		_, si, err := simd.Reduce(xs, 256, simd.Interleaved)
		if err != nil {
			b.Fatal(err)
		}
		_, ss, err := simd.Reduce(xs, 256, simd.Sequential)
		if err != nil {
			b.Fatal(err)
		}
		inter, seq = si.DivergentBranches, ss.DivergentBranches
	}
	b.ReportMetric(float64(inter), "interleaved-divergent")
	b.ReportMetric(float64(seq), "sequential-divergent")
}

// BenchmarkAblation_Bcast compares linear and binomial-tree broadcast by
// root send count.
func BenchmarkAblation_Bcast(b *testing.B) {
	const p = 16
	var tree, linear int64
	for i := 0; i < b.N; i++ {
		mp.Run(p, func(c *mp.Comm) error { //nolint:errcheck
			if _, err := c.Bcast(0, []int64{1}); err != nil {
				return err
			}
			if c.Rank() == 0 {
				tree = c.Stats().Sent
			}
			return nil
		})
		mp.Run(p, func(c *mp.Comm) error { //nolint:errcheck
			if _, err := c.BcastLinear(0, []int64{1}); err != nil {
				return err
			}
			if c.Rank() == 0 {
				linear = c.Stats().Sent
			}
			return nil
		})
	}
	b.ReportMetric(float64(tree), "tree-root-sends")
	b.ReportMetric(float64(linear), "linear-root-sends")
}

// BenchmarkAblation_WritePolicy compares write-through and write-back
// downstream traffic on a write-heavy loop.
func BenchmarkAblation_WritePolicy(b *testing.B) {
	trace := make([]mem.Access, 0, 20000)
	for i := 0; i < 10000; i++ {
		trace = append(trace, mem.Access{Addr: uint64(i%64) * 8, Write: true})
		trace = append(trace, mem.Access{Addr: uint64(i%64) * 8, Write: false})
	}
	var wbTraffic, wtTraffic int64
	for i := 0; i < b.N; i++ {
		wb, _ := mem.NewCache(mem.CacheConfig{SizeBytes: 1024, BlockBytes: 64, Assoc: 2, Write: mem.WriteBack})
		wt, _ := mem.NewCache(mem.CacheConfig{SizeBytes: 1024, BlockBytes: 64, Assoc: 2, Write: mem.WriteThrough})
		mem.ReplayCache(wb, trace)
		mem.ReplayCache(wt, trace)
		wbTraffic = wb.Stats().Writebacks
		wtTraffic = wt.Stats().Writedowns
	}
	b.ReportMetric(float64(wbTraffic), "writeback-traffic")
	b.ReportMetric(float64(wtTraffic), "writethrough-traffic")
}

// BenchmarkAblation_Multiway compares 2-way and multiway external merge.
func BenchmarkAblation_Multiway(b *testing.B) {
	xs := make([]int64, 30000)
	for i := range xs {
		xs[i] = int64((i * 48271) % 100000)
	}
	for _, tc := range []struct {
		name   string
		fanout int
	}{{"two-way", 2}, {"multiway", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			var ios int64
			var passes int
			for i := 0; i < b.N; i++ {
				dev, _ := iomodel.NewDevice(8)
				in := dev.NewFileFrom(xs)
				dev.ResetCounters()
				_, st, err := iomodel.ExternalMergeSort(in, 256, tc.fanout)
				if err != nil {
					b.Fatal(err)
				}
				ios, passes = st.IOs, st.MergePasses
			}
			b.ReportMetric(float64(ios), "block-IOs")
			b.ReportMetric(float64(passes), "merge-passes")
		})
	}
}

// BenchmarkAblation_LifePartitioning compares the lab's row-block
// decomposition against the strided (interleaved-row) assignment, which
// shreds spatial locality and invites false sharing at every band
// boundary on real hardware.
func BenchmarkAblation_LifePartitioning(b *testing.B) {
	for _, tc := range []struct {
		name string
		step func(g *life.Grid) error
	}{
		{"row-block", func(g *life.Grid) error { return g.StepNParallel(1, 4) }},
		{"strided", func(g *life.Grid) error { return g.StepNParallelStrided(1, 4) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g, err := life.NewGrid(128, 128, life.Torus)
			if err != nil {
				b.Fatal(err)
			}
			g.Seed(0.3, 9)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tc.step(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLockPrimitives compares the educational mutex against the
// spinlock under contention (the lecture's "why not always spin").
func BenchmarkLockPrimitives(b *testing.B) {
	b.Run("mutex", func(b *testing.B) {
		mu := pthread.NewMutex(pthread.MutexNormal)
		counter := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ths := pthread.Spawn(4, func(pthread.ID, int) {
				for j := 0; j < 200; j++ {
					mu.Lock()
					counter++
					mu.Unlock()
				}
			})
			if err := pthread.JoinAll(ths); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("spinlock", func(b *testing.B) {
		var sl pthread.SpinLock
		counter := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ths := pthread.Spawn(4, func(pthread.ID, int) {
				for j := 0; j < 200; j++ {
					sl.Lock()
					counter++
					sl.Unlock()
				}
			})
			if err := pthread.JoinAll(ths); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAmdahlTable tabulates the law itself (cheap, but keeps the
// cross-cutting row represented in bench output).
func BenchmarkAmdahlTable(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		for _, f := range []float64{0.01, 0.05, 0.1, 0.25} {
			for _, p := range []int{2, 4, 8, 16, 64} {
				last = metrics.AmdahlSpeedup(f, p)
			}
		}
	}
	b.ReportMetric(last, "speedup(f=0.25,p=64)")
}

// BenchmarkDAGScheduling times greedy list scheduling with the Brent
// verification on a fork-join DAG.
func BenchmarkDAGScheduling(b *testing.B) {
	g := dag.New()
	var build func(d int) dag.Fragment
	build = func(d int) dag.Fragment {
		if d == 0 {
			return dag.Leaf(g, 1, "leaf")
		}
		return dag.Seq(dag.Par(g, build(d-1), build(d-1)), dag.Leaf(g, int64(d), "join"))
	}
	build(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := g.GreedySchedule(4)
		if err != nil {
			b.Fatal(err)
		}
		bound, _ := g.BrentUpperBound(4)
		if float64(s.Makespan) > bound {
			b.Fatal("Brent violated")
		}
	}
}

// BenchmarkCS75_Compiler compiles and runs the fib program through the
// whole MiniC -> SWAT32 -> CPU pipeline, with and without optimization.
func BenchmarkCS75_Compiler(b *testing.B) {
	src := `
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
int main() {
    print(fib(12) + 0 * 99);
    return 1 * 0;
}`
	for _, tc := range []struct {
		name     string
		optimize bool
	}{{"plain", false}, {"optimized", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				out, _, st, err := minicc.Run(src, tc.optimize, 10_000_000)
				if err != nil || out != "144\n" {
					b.Fatalf("out=%q err=%v", out, err)
				}
				steps = st
			}
			b.ReportMetric(float64(steps), "dynamic-instructions")
		})
	}
}

// BenchmarkCS87_OmpSchedules compares worksharing schedules on a skewed
// loop: per-thread work imbalance is the reported metric.
func BenchmarkCS87_OmpSchedules(b *testing.B) {
	work := func(i int) int64 {
		acc := int64(0)
		reps := 10
		if i < 64 {
			reps = 500 // skewed head
		}
		for k := 0; k < reps; k++ {
			acc += int64(i * k)
		}
		return acc
	}
	for _, sched := range []omp.Schedule{omp.Static, omp.Dynamic, omp.Guided} {
		b.Run(sched.String(), func(b *testing.B) {
			var census omp.Census
			for i := 0; i < b.N; i++ {
				_, c, err := omp.ForReduce(0, 1024, omp.Config{Threads: 4, Schedule: sched, Chunk: 8},
					0, work, func(a, x int64) int64 { return a + x })
				if err != nil {
					b.Fatal(err)
				}
				census = c
			}
			b.ReportMetric(census.Imbalance(), "iter-imbalance")
		})
	}
}

// BenchmarkCS87_DSM measures the DSM protocol on the producer/consumer
// flag pattern.
func BenchmarkCS87_DSM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := dsm.Run(2, 2, 4, func(n *dsm.Node) error {
			if n.Rank() == 1 {
				if err := n.Write(0, 0, 99); err != nil {
					return err
				}
				return n.Write(1, 0, 1)
			}
			for {
				v, err := n.Read(1, 0)
				if err != nil {
					return err
				}
				if v == 1 {
					break
				}
			}
			v, err := n.Read(0, 0)
			if err != nil {
				return err
			}
			if v != 99 {
				b.Error("DSM lost the write")
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCS44_Joins compares the join algorithms the Databases course
// plans to cover, on a 20k x 20k equi-join.
func BenchmarkCS44_Joins(b *testing.B) {
	mk := func(seed uint64, tag string) db.Relation {
		s := seed
		out := make(db.Relation, 20000)
		for i := range out {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			out[i] = db.Tuple{Key: int64(s % 30000), Payload: tag}
		}
		return out
	}
	l, r := mk(1, "l"), mk(2, "r")
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db.HashJoin(l, r)
		}
	})
	b.Run("sort-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db.SortMergeJoin(l, r)
		}
	})
	b.Run("grace-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := db.GraceHashJoin(l, r, 16, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCS44_TwoPhaseCommit runs a 3-participant transaction batch.
func BenchmarkCS44_TwoPhaseCommit(b *testing.B) {
	txns := make([]db.Txn, 10)
	for i := range txns {
		txns[i] = db.Txn{Writes: map[int]map[string]string{
			1: {fmt.Sprintf("k%d", i): "v"},
			2: {fmt.Sprintf("k%d", i): "v"},
			3: {fmt.Sprintf("k%d", i): "v"},
		}}
	}
	for i := 0; i < b.N; i++ {
		res, err := db.RunTransactions(db.TPCConfig{Participants: 3}, txns)
		if err != nil {
			b.Fatal(err)
		}
		for _, ok := range res.Committed {
			if !ok {
				b.Fatal("unexpected abort")
			}
		}
	}
}

// BenchmarkCS44_DHT measures put/get throughput plus the key-movement
// cost of a node join.
func BenchmarkCS44_DHT(b *testing.B) {
	var moved int64
	for i := 0; i < b.N; i++ {
		d, err := db.NewDHT(64)
		if err != nil {
			b.Fatal(err)
		}
		d.AddNode("a")
		d.AddNode("b")
		d.AddNode("c")
		for k := 0; k < 2000; k++ {
			d.Put(fmt.Sprintf("key-%d", k), "v")
		}
		before := d.Moves()
		d.AddNode("d")
		moved = d.Moves() - before
	}
	b.ReportMetric(float64(moved), "keys-moved-on-join")
}

// BenchmarkAblation_SharedMemTiling compares the naive and shared-memory
// tiled SIMT matrix multiplies by global-memory traffic.
func BenchmarkAblation_SharedMemTiling(b *testing.B) {
	const n, tile = 32, 8
	a := make([]float64, n*n)
	m := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i % 9)
		m[i] = float64(i % 7)
	}
	for _, tc := range []struct {
		name string
		run  func() (simd.Stats, error)
	}{
		{"naive", func() (simd.Stats, error) { _, st, err := simd.MatMulNaive(a, m, n, tile); return st, err }},
		{"tiled", func() (simd.Stats, error) { _, st, err := simd.MatMulTiled(a, m, n, tile); return st, err }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var st simd.Stats
			for i := 0; i < b.N; i++ {
				s, err := tc.run()
				if err != nil {
					b.Fatal(err)
				}
				st = s
			}
			b.ReportMetric(float64(st.GlobalAccesses), "global-accesses")
			b.ReportMetric(float64(st.GlobalTransactions), "transactions")
		})
	}
}
