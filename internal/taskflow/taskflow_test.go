package taskflow

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"fastgr/internal/geom"
	"fastgr/internal/obs"
	"fastgr/internal/sched"
)

// chainGraph builds 0 -> 1 -> 2 ... -> n-1.
func chainGraph(n int) *sched.Graph {
	g := &sched.Graph{
		Tasks:     make([]sched.Task, n),
		Succ:      make([][]int, n),
		Indegree:  make([]int, n),
		RootBatch: make([]bool, n),
	}
	for i := 0; i < n-1; i++ {
		g.Succ[i] = []int{i + 1}
		g.Indegree[i+1] = 1
		g.Edges++
	}
	return g
}

// independentGraph builds n tasks with no edges.
func independentGraph(n int) *sched.Graph {
	return &sched.Graph{
		Tasks:     make([]sched.Task, n),
		Succ:      make([][]int, n),
		Indegree:  make([]int, n),
		RootBatch: make([]bool, n),
	}
}

func overlappingTasks(n int) []sched.Task {
	tasks := make([]sched.Task, n)
	for i := range tasks {
		// Staircase: task i overlaps task i+1 only.
		lo := geom.Point{X: i * 4, Y: i * 4}
		hi := geom.Point{X: i*4 + 5, Y: i*4 + 5}
		tasks[i] = sched.Task{ID: i, BBox: geom.NewRect(lo, hi)}
	}
	return tasks
}

func TestRunExecutesAllRespectingDeps(t *testing.T) {
	g := chainGraph(50)
	var mu sync.Mutex
	var order []int
	Run(g, 4, func(task int) {
		mu.Lock()
		order = append(order, task)
		mu.Unlock()
	})
	if len(order) != 50 {
		t.Fatalf("executed %d of 50", len(order))
	}
	for i, task := range order {
		if task != i {
			t.Fatalf("chain executed out of order at %d: %d", i, task)
		}
	}
}

func TestRunParallelCounts(t *testing.T) {
	g := independentGraph(200)
	var n int64
	Run(g, 8, func(task int) { atomic.AddInt64(&n, 1) })
	if n != 200 {
		t.Fatalf("executed %d of 200", n)
	}
}

func TestRunDependencyOrderProperty(t *testing.T) {
	tasks := overlappingTasks(30)
	g := sched.BuildGraph(tasks, 200, 200)
	finished := make([]int64, len(tasks))
	var stamp int64
	Run(g, 6, func(task int) {
		finished[task] = atomic.AddInt64(&stamp, 1)
	})
	for u := range g.Succ {
		for _, v := range g.Succ[u] {
			if finished[u] >= finished[v] {
				t.Fatalf("task %d finished after its successor %d", u, v)
			}
		}
	}
}

func TestRunEmptyAndSingleWorker(t *testing.T) {
	Run(independentGraph(0), 4, func(int) { t.Fatal("called on empty graph") })
	count := 0
	Run(chainGraph(5), 0, func(int) { count++ }) // workers clamped to 1
	if count != 5 {
		t.Fatalf("single-worker run executed %d", count)
	}
}

func durationsOf(ms ...int) []time.Duration {
	d := make([]time.Duration, len(ms))
	for i, m := range ms {
		d[i] = time.Duration(m) * time.Millisecond
	}
	return d
}

func TestMakespanChainEqualsSum(t *testing.T) {
	g := chainGraph(4)
	d := durationsOf(1, 2, 3, 4)
	if got := Makespan(g, d, 8); got != 10*time.Millisecond {
		t.Fatalf("chain makespan = %v, want 10ms", got)
	}
	if got := CriticalPath(g, d); got != 10*time.Millisecond {
		t.Fatalf("critical path = %v", got)
	}
}

func TestMakespanIndependentPerfectSplit(t *testing.T) {
	g := independentGraph(4)
	d := durationsOf(5, 5, 5, 5)
	if got := Makespan(g, d, 4); got != 5*time.Millisecond {
		t.Fatalf("independent makespan on 4 workers = %v, want 5ms", got)
	}
	if got := Makespan(g, d, 2); got != 10*time.Millisecond {
		t.Fatalf("independent makespan on 2 workers = %v, want 10ms", got)
	}
	if got := Makespan(g, d, 1); got != SumDurations(d) {
		t.Fatalf("1-worker makespan = %v, want sum", got)
	}
}

func TestMakespanDiamond(t *testing.T) {
	// 0 -> {1,2} -> 3; durations 1, 5, 5, 1: two workers run 1 and 2 in
	// parallel: 1 + 5 + 1 = 7ms.
	g := independentGraph(4)
	g.Succ[0] = []int{1, 2}
	g.Succ[1] = []int{3}
	g.Succ[2] = []int{3}
	g.Indegree[1], g.Indegree[2], g.Indegree[3] = 1, 1, 2
	d := durationsOf(1, 5, 5, 1)
	if got := Makespan(g, d, 2); got != 7*time.Millisecond {
		t.Fatalf("diamond makespan = %v, want 7ms", got)
	}
}

func TestBatchMakespan(t *testing.T) {
	// Two batches; barrier forces sum of per-batch maxima.
	batches := [][]int{{0, 1}, {2, 3}}
	d := durationsOf(3, 7, 2, 2)
	if got := BatchMakespan(batches, d, 4); got != 9*time.Millisecond {
		t.Fatalf("batch makespan = %v, want 9ms", got)
	}
	// With one worker the barrier does not matter: sum of everything.
	if got := BatchMakespan(batches, d, 1); got != 14*time.Millisecond {
		t.Fatalf("1-worker batch makespan = %v, want 14ms", got)
	}
}

func TestTaskGraphBeatsBatchBarrier(t *testing.T) {
	// The paper's core scheduling claim (2.501x in Table VIII): with skewed
	// durations the barrier wastes workers, the DAG does not. Staircase
	// conflicts: batches alternate {0,2,4,...},{1,3,5,...}; the DAG only
	// chains neighbors.
	tasks := overlappingTasks(24)
	g := sched.BuildGraph(tasks, 200, 200)
	ids := make([]int, len(tasks))
	durations := make([]time.Duration, len(tasks))
	for i := range tasks {
		ids[i] = i
		if i%6 == 0 {
			durations[i] = 20 * time.Millisecond // a few long tasks
		} else {
			durations[i] = 2 * time.Millisecond
		}
	}
	taskSlices := make([]sched.Task, len(tasks))
	copy(taskSlices, tasks)
	batches := sched.ExtractBatches(taskSlices)
	idBatches := make([][]int, len(batches))
	for i, b := range batches {
		for _, task := range b {
			idBatches[i] = append(idBatches[i], task.ID)
		}
	}
	dag := Makespan(g, durations, 16)
	bar := BatchMakespan(idBatches, durations, 16)
	if dag > bar {
		t.Fatalf("task graph (%v) slower than batch barrier (%v)", dag, bar)
	}
	if cp := CriticalPath(g, durations); dag < cp {
		t.Fatalf("makespan %v below critical path %v", dag, cp)
	}
}

func TestMakespanBounds(t *testing.T) {
	// Property: critical path <= makespan <= sequential sum; more workers
	// never hurt.
	f := func(raw []uint8, w uint8) bool {
		n := len(raw)
		if n == 0 || n > 40 {
			return true
		}
		tasks := overlappingTasks(n)
		g := sched.BuildGraph(tasks, 400, 400)
		d := make([]time.Duration, n)
		for i, r := range raw {
			d[i] = time.Duration(int(r)%20+1) * time.Millisecond
		}
		workers := int(w)%8 + 1
		ms := Makespan(g, d, workers)
		if ms < CriticalPath(g, d) || ms > SumDurations(d) {
			return false
		}
		return Makespan(g, d, workers+4) <= ms
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMakespanEmpty(t *testing.T) {
	if Makespan(independentGraph(0), nil, 4) != 0 {
		t.Fatal("empty makespan not zero")
	}
	if BatchMakespan(nil, nil, 4) != 0 {
		t.Fatal("empty batch makespan not zero")
	}
}

// TestRunWorkersObserved checks the executor's wait/run histograms: every
// task contributes one observation to each, and dependencies still hold.
func TestRunWorkersObserved(t *testing.T) {
	const n = 40
	g := chainGraph(n)
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	var mu sync.Mutex
	var order []int
	err := RunWorkersFault(g, 4, o, func(_, task int) error {
		mu.Lock()
		order = append(order, task)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("executed %d tasks, want %d", len(order), n)
	}
	for i, task := range order {
		if task != i {
			t.Fatalf("chain executed out of order at %d: %v", i, order)
		}
	}
	s := o.Metrics.Snapshot()
	wait, run := s.Histograms[obs.MTaskWaitNs.Name()], s.Histograms[obs.MTaskRunNs.Name()]
	if wait.Count != n || run.Count != n {
		t.Fatalf("wait/run counts = %d/%d, want %d each", wait.Count, run.Count, n)
	}
	if wait.Min < 0 || run.Min < 0 {
		t.Fatalf("negative durations: wait min %d, run min %d", wait.Min, run.Min)
	}
}
