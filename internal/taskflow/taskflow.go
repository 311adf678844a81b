// Package taskflow is the router's one host executor, playing the role of
// the Taskflow C++ library the paper uses for the rip-up-and-reroute
// stage: a dependency-respecting worker pool for task graphs
// (RunWorkersFault), a chunked parallel-for for independent units (For),
// and deterministic makespan models for the two parallelization
// strategies the paper compares — the task-graph schedule (FastGR) and the
// widely adopted batch-barrier schedule (the CPU baseline). The batch
// barrier is modeled, never executed: a baseline run executes its batch
// order as a task graph too.
//
// The contract that keeps parallel runs bit-identical to sequential ones
// is the caller's: the body run for a task or index may only write state
// that task owns (its own result slot, grid cells inside its private
// window) plus scratch keyed by the worker id it receives. Under that
// contract the outcome is a pure function of the input however the work
// interleaves, so no modeled time or routing result may change with the
// worker count — only wall-clock does.
package taskflow

import (
	"sync"
	"sync/atomic"
	"time"

	"fastgr/internal/obs"
	"fastgr/internal/sched"
)

// Run executes fn for every task of the graph with the given number of
// goroutine workers, never running a task before all its predecessors have
// finished. Tasks whose bounding boxes do not conflict may run concurrently;
// because conflicts were defined on the (inflated) regions each task
// touches, concurrent tasks commute and the outcome is deterministic.
// Only the frozen cmd/e2ebench replay calls it; the router calls
// RunWorkersFault.
func Run(g *sched.Graph, workers int, fn func(task int)) {
	RunWorkers(g, workers, func(_, task int) { fn(task) })
}

// RunWorkers is Run with worker identity: fn receives the id (in
// [0, workers)) of the goroutine executing it, so callers can keep one
// scratch object per worker — e.g. a maze.Search — without locking. A worker
// id is used by exactly one goroutine for the whole run. Only the frozen
// cmd/e2ebench replay calls it; the router calls RunWorkersFault.
func RunWorkers(g *sched.Graph, workers int, fn func(worker, task int)) {
	RunWorkersFault(g, workers, nil, func(worker, task int) error {
		fn(worker, task)
		return nil
	})
}

// RunWorkersFault is the executor, for fallible tasks: RunWorkers whose
// bodies return an error. The first error a body returns cancels the run
// — tasks not yet started settle unrun — and is returned; nil means every
// task ran. A failure the caller can contain holds back nothing: it runs
// the body under fault.Containment.Run and returns nil for a contained
// *fault.WorkError, so every dependent still runs. With a metrics registry
// attached, each executed task records its ready-to-start latency
// (obs.MTaskWaitNs, from its last predecessor finishing to a worker
// picking it up) and its run duration (obs.MTaskRunNs); a nil or
// metrics-less observer adds no timing calls, and observation never
// changes the schedule or the task outcomes.
func RunWorkersFault(g *sched.Graph, workers int, o *obs.Observer, fn func(worker, task int) error) error {
	n := len(g.Tasks)
	if n == 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}

	waitHist := o.M().Histogram(obs.MTaskWaitNs)
	runHist := o.M().Histogram(obs.MTaskRunNs)
	observing := waitHist != nil
	// Wall-clock reads route through the obs stopwatch (detwall): the
	// readings feed histograms only, never the schedule or the results.
	var readyAt []obs.Stopwatch
	if observing {
		readyAt = make([]obs.Stopwatch, n)
	}

	indeg := append([]int(nil), g.Indegree...)
	ready := make(chan int, n)
	push := func(t int) {
		if observing {
			readyAt[t] = obs.StartStopwatch()
		}
		ready <- t
	}
	for i, d := range indeg {
		if d == 0 {
			push(i)
		}
	}

	var mu sync.Mutex
	done := 0
	var cancelErr error
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for t := range ready {
				mu.Lock()
				canceled := cancelErr != nil
				mu.Unlock()
				var err error
				if !canceled {
					var run obs.Stopwatch
					if observing {
						waitHist.Observe(readyAt[t].ElapsedNs())
						run = obs.StartStopwatch()
					}
					err = fn(worker, t)
					if observing {
						runHist.Observe(run.ElapsedNs())
					}
				}
				mu.Lock()
				if cancelErr == nil {
					cancelErr = err
				}
				done++
				for _, v := range g.Succ[t] {
					if indeg[v]--; indeg[v] == 0 {
						push(v)
					}
				}
				if done == n {
					close(ready)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if done != n {
		panic("taskflow: executor deadlocked (cyclic graph?)")
	}
	return cancelErr
}

// For runs fn(worker, i) for every i in [0, n) on at most workers
// goroutines and returns the error of the lowest index whose fn failed —
// nil when none did. Every index runs either way, so the returned error
// is the same at every worker count. The worker argument is in
// [0, workers) and names one goroutine for the whole call, so fn may index
// per-worker scratch without locking. Indices are claimed in contiguous
// chunks from a shared counter (work-stealing by chunk), which balances
// skewed per-index costs without a scheduler thread; one worker runs the
// whole range inline as one chunk. A fault-containment layer is the
// caller's to wrap around fn.
//
// With an observer, each chunk records a par.chunk span on its worker's
// lane, its claim latency since the call began (obs.MParWaitNs; zero on
// the inline path) and its run duration (obs.MParRunNs). Observation
// never changes which indices run or what they return.
func For(workers, n int, o *obs.Observer, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = min(max(workers, 1), n)
	tr := o.T()
	waitHist := o.M().Histogram(obs.MParWaitNs)
	runHist := o.M().Histogram(obs.MParRunNs)
	observing := tr.On() || waitHist != nil
	var forStart obs.Stopwatch
	if observing {
		forStart = obs.StartStopwatch()
	}
	// Chunked claiming keeps the atomic counter off the hot path while
	// still letting fast workers absorb the tail of slow ones.
	chunk := n
	if workers > 1 {
		chunk = max(n/(workers*8), 1)
	}
	var next atomic.Int64
	var mu sync.Mutex
	lowest, lowestErr := n, error(nil)
	claim := func(worker int) {
		for {
			start := int(next.Add(int64(chunk))) - chunk
			if start >= n {
				return
			}
			var run obs.Stopwatch
			var sp obs.Span
			if observing {
				var waited int64
				if workers > 1 {
					waited = forStart.ElapsedNs()
				}
				waitHist.Observe(waited)
				run = obs.StartStopwatch()
				sp = tr.StartSpan("par.chunk", worker)
			}
			for i := start; i < min(start+chunk, n); i++ {
				if err := fn(worker, i); err != nil {
					mu.Lock()
					if i < lowest {
						lowest, lowestErr = i, err
					}
					mu.Unlock()
				}
			}
			if observing {
				sp.End()
				runHist.Observe(run.ElapsedNs())
			}
		}
	}
	if workers == 1 {
		claim(0)
		return lowestErr
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			claim(w)
		}()
	}
	wg.Wait()
	return lowestErr
}

// Makespan simulates critical-path-first list scheduling of the task graph
// on P workers with the given per-task durations: a task becomes ready when
// its last predecessor finishes, and among ready tasks the one heading the
// longest remaining dependency chain starts first (highest-level-first, the
// textbook DAG scheduling heuristic). This is the deterministic model behind
// the reported parallel-CPU times (see DESIGN.md).
func Makespan(g *sched.Graph, durations []time.Duration, workers int) time.Duration {
	n := len(g.Tasks)
	if n == 0 {
		return 0
	}
	if workers < 1 {
		workers = 1
	}
	// Upward rank: longest path from the task to any sink, inclusive.
	rank := make([]time.Duration, n)
	order := g.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		var best time.Duration
		for _, v := range g.Succ[u] {
			if rank[v] > best {
				best = rank[v]
			}
		}
		rank[u] = best + durations[u]
	}

	indeg := append([]int(nil), g.Indegree...)
	readyAt := make([]time.Duration, n) // max finish time of predecessors
	finish := make([]time.Duration, n)

	type item struct {
		task int
		at   time.Duration
	}
	ready := make([]item, 0, n)
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, item{i, 0})
		}
	}
	workerFree := make([]time.Duration, workers)
	var makespan time.Duration
	scheduled := 0
	for scheduled < n {
		if len(ready) == 0 {
			panic("taskflow: makespan model starved (cyclic graph?)")
		}
		// Pick the schedulable task with the highest upward rank. A task can
		// start at max(its ready time, earliest worker free time); among
		// tasks startable at the earliest such instant, prefer the longest
		// remaining chain (ties by task ID for determinism).
		w := 0
		for k := 1; k < workers; k++ {
			if workerFree[k] < workerFree[w] {
				w = k
			}
		}
		// Earliest possible start over all ready tasks.
		bestStart := time.Duration(1<<63 - 1)
		for _, it := range ready {
			start := workerFree[w]
			if it.at > start {
				start = it.at
			}
			if start < bestStart {
				bestStart = start
			}
		}
		sel := -1
		for idx, it := range ready {
			start := workerFree[w]
			if it.at > start {
				start = it.at
			}
			if start != bestStart {
				continue
			}
			if sel < 0 || rank[it.task] > rank[ready[sel].task] ||
				(rank[it.task] == rank[ready[sel].task] && it.task < ready[sel].task) {
				sel = idx
			}
		}
		it := ready[sel]
		ready = append(ready[:sel], ready[sel+1:]...)

		start := workerFree[w]
		if it.at > start {
			start = it.at
		}
		end := start + durations[it.task]
		workerFree[w] = end
		finish[it.task] = end
		if end > makespan {
			makespan = end
		}
		scheduled++
		for _, v := range g.Succ[it.task] {
			if finish[it.task] > readyAt[v] {
				readyAt[v] = finish[it.task]
			}
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, item{v, readyAt[v]})
			}
		}
	}
	return makespan
}

// BatchMakespan models the baseline batch-barrier strategy the paper calls
// the "widely adopted batch-based parallelization": batches execute one
// after another with a full barrier between them, and inside a batch tasks
// are statically partitioned round-robin over P workers (OpenMP-style
// static scheduling) — no work stealing, so a skewed partition leaves
// workers idle at the barrier.
func BatchMakespan(batches [][]int, durations []time.Duration, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	var total time.Duration
	for _, batch := range batches {
		load := make([]time.Duration, workers)
		for i, t := range batch {
			load[i%workers] += durations[t]
		}
		var batchEnd time.Duration
		for _, l := range load {
			if l > batchEnd {
				batchEnd = l
			}
		}
		total += batchEnd
	}
	return total
}

// CriticalPath returns the graph's dependency-chain lower bound — no
// schedule on any worker count can beat it.
func CriticalPath(g *sched.Graph, durations []time.Duration) time.Duration {
	order := g.TopoOrder()
	longest := make([]time.Duration, len(g.Tasks))
	var cp time.Duration
	for _, u := range order {
		end := longest[u] + durations[u]
		if end > cp {
			cp = end
		}
		for _, v := range g.Succ[u] {
			if end > longest[v] {
				longest[v] = end
			}
		}
	}
	return cp
}

// SumDurations is the sequential (one worker) execution time.
func SumDurations(durations []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range durations {
		s += d
	}
	return s
}
