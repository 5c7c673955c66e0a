package dag

import (
	"testing"
	"time"
)

// forkJoinGraph builds a depth-d binary fork-join DAG with leaf cost 1
// and join cost d at each level.
func forkJoinGraph(d int) *Graph {
	g := New()
	var build func(d int) Fragment
	build = func(d int) Fragment {
		if d == 0 {
			return Leaf(g, 1, "leaf")
		}
		return Seq(Par(g, build(d-1), build(d-1)), Leaf(g, int64(d), "join"))
	}
	build(d)
	return g
}

func TestExecuteRunsEveryTaskOnce(t *testing.T) {
	g := forkJoinGraph(6)
	rep, err := Execute(g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != int64(g.Size()) {
		t.Fatalf("ran %d of %d tasks", rep.Tasks, g.Size())
	}
	if rep.Work != g.Work() {
		t.Errorf("work %d != %d", rep.Work, g.Work())
	}
	span, _, _ := g.Span()
	if rep.Span != span {
		t.Errorf("span %d != %d", rep.Span, span)
	}
	if rep.Sched.Tasks < int64(g.Size()) {
		t.Errorf("scheduler ran %d tasks for %d graph nodes", rep.Sched.Tasks, g.Size())
	}
}

// TestExecuteRespectsDependencies hammers a layered DAG repeatedly
// (and under -race in CI) so missed-dependency forks or double-forks
// would show up as lost or duplicated tasks.
func TestExecuteRespectsDependencies(t *testing.T) {
	g := New()
	// Layered random-ish DAG: 6 layers of 4, each task depends on two
	// tasks of the previous layer.
	const layers, width = 6, 4
	ids := make([][]Task, layers)
	for l := 0; l < layers; l++ {
		ids[l] = make([]Task, width)
		for w := 0; w < width; w++ {
			ids[l][w] = g.AddTask(int64(1+(l*width+w)%3), "t")
			if l > 0 {
				g.AddEdge(ids[l-1][w], ids[l][w])           //nolint:errcheck
				g.AddEdge(ids[l-1][(w+1)%width], ids[l][w]) //nolint:errcheck
			}
		}
	}
	for i := 0; i < 10; i++ {
		rep, err := Execute(g, 4, 10*time.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Tasks != int64(g.Size()) {
			t.Fatalf("round %d: ran %d of %d", i, rep.Tasks, g.Size())
		}
	}
}

// TestExecuteWideLayersExactlyOnce is the double-fork regression: with
// zero-cost tasks, layer-1 tasks finish while the seed loop is still
// scanning, so a seed condition of remaining==0 (instead of initial
// indegree zero) forked layer-2 tasks twice — a 60k-node graph executed
// ~80k task bodies and released successors before all predecessors ran.
func TestExecuteWideLayersExactlyOnce(t *testing.T) {
	g := New()
	const width = 20000
	top := make([]Task, width)
	for i := range top {
		top[i] = g.AddTask(1, "top")
	}
	for i := 0; i < width; i++ {
		b := g.AddTask(1, "bot")
		g.AddEdge(top[i], b) //nolint:errcheck
	}
	// The double-fork is a race; several rounds make a regression
	// reliably visible (the racy seed lost >1 in 5 runs of a round).
	for round := 0; round < 6; round++ {
		rep, err := Execute(g, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Tasks != int64(g.Size()) {
			t.Fatalf("round %d: ran %d tasks for graph of %d", round, rep.Tasks, g.Size())
		}
	}
}

func TestExecuteSpeedupReport(t *testing.T) {
	g := forkJoinGraph(5)
	rep, err := Execute(g, 4, 50*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Parallelism <= 1 {
		t.Errorf("parallelism = %f", rep.Parallelism)
	}
	if rep.IdealSpeedup <= 0 || rep.IdealSpeedup > 4 {
		t.Errorf("ideal speedup = %f", rep.IdealSpeedup)
	}
	if rep.AchievedSpeedup <= 0 {
		t.Errorf("achieved speedup = %f", rep.AchievedSpeedup)
	}
	// Wall time can never beat the critical path.
	if min := time.Duration(rep.Span) * 50 * time.Microsecond; rep.Elapsed < min {
		t.Errorf("elapsed %v below span lower bound %v", rep.Elapsed, min)
	}
	// One worker: achieved speedup can't meaningfully exceed 1.
	rep1, err := Execute(g, 1, 50*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.AchievedSpeedup > 1.3 {
		t.Errorf("1-worker achieved speedup %f > 1", rep1.AchievedSpeedup)
	}
	if rep1.IdealSpeedup != 1 {
		t.Errorf("1-worker ideal speedup = %f", rep1.IdealSpeedup)
	}
}

func TestExecuteErrors(t *testing.T) {
	g := New()
	a := g.AddTask(1, "a")
	b := g.AddTask(1, "b")
	g.AddEdge(a, b) //nolint:errcheck
	g.AddEdge(b, a) //nolint:errcheck
	if _, err := Execute(g, 2, 0); err != ErrCycle {
		t.Errorf("cycle: %v", err)
	}
	ok := New()
	ok.AddTask(1, "x")
	if _, err := Execute(ok, 0, 0); err == nil {
		t.Error("workers=0 should error")
	}
	if _, err := Execute(ok, 2, -time.Second); err == nil {
		t.Error("negative unit should error")
	}
	empty := New()
	rep, err := Execute(empty, 2, 0)
	if err != nil || rep.Tasks != 0 {
		t.Errorf("empty graph: %v %+v", err, rep)
	}
}

func TestExecuteGroupLateForks(t *testing.T) {
	// A long chain: every task forks its successor after Wait started —
	// the Group late-arrival path.
	g := New()
	prev := g.AddTask(1, "head")
	for i := 0; i < 50; i++ {
		next := g.AddTask(1, "link")
		g.AddEdge(prev, next) //nolint:errcheck
		prev = next
	}
	rep, err := Execute(g, 3, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != 51 {
		t.Fatalf("chain ran %d tasks", rep.Tasks)
	}
	if rep.Parallelism != 1 {
		t.Errorf("chain parallelism = %f, want 1", rep.Parallelism)
	}
}
