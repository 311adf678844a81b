// Scheduler walkthrough: build a task conflict graph from a hand-made set of
// routing tasks, extract the root batch, orient the conflict edges into a
// DAG (Fig. 6 / Section III-B) and compare the two parallelization
// strategies — batch-barrier vs. task-graph — on skewed task durations.
package main

import (
	"fmt"
	"time"

	"fastgr/internal/geom"
	"fastgr/internal/sched"
	"fastgr/internal/taskflow"
)

func main() {
	// A miniature of a rip-up iteration's conflict structure: one congested
	// hot spot where a stack of 12 nets all overlap (they must serialize),
	// surrounded by 48 independent nets elsewhere on the die. The barrier
	// strategy drains the hot spot one batch at a time, stalling the whole
	// machine; the task graph lets the independent work flow around it.
	var tasks []sched.Task
	for i := 0; i < 12; i++ {
		tasks = append(tasks, sched.Task{
			ID:   len(tasks),
			BBox: geom.NewRect(geom.Point{X: 10, Y: 10}, geom.Point{X: 20, Y: 20}),
		})
	}
	for i := 0; i < 48; i++ {
		lo := geom.Point{X: 40 + (i%12)*10, Y: 40 + (i/12)*10}
		hi := geom.Point{X: lo.X + 6, Y: lo.Y + 6}
		tasks = append(tasks, sched.Task{ID: len(tasks), BBox: geom.NewRect(lo, hi)})
	}

	g := sched.BuildGraph(tasks, 200, 200)
	fmt.Printf("%d tasks, %d conflict edges\n", len(g.Tasks), g.Edges)
	fmt.Print("root batch: ")
	for i, in := range g.RootBatch {
		if in {
			fmt.Printf("%d ", i)
		}
	}
	fmt.Println()

	// Hot-spot nets reroute quickly (small windows); the independent nets
	// are larger rip-ups.
	durations := make([]time.Duration, len(tasks))
	for i := range durations {
		if i < 12 {
			durations[i] = 3 * time.Millisecond
		} else {
			durations[i] = 12 * time.Millisecond
		}
	}

	// Batch-barrier strategy (the widely adopted baseline).
	idBatches := sched.BatchIDs(sched.ExtractBatches(tasks))
	const workers = 16
	batch := taskflow.BatchMakespan(idBatches, durations, workers)
	dag := taskflow.Makespan(g, durations, workers)
	cp := taskflow.CriticalPath(g, durations)
	seq := taskflow.SumDurations(durations)

	fmt.Printf("\nsequential          %v\n", seq)
	fmt.Printf("batch-barrier (16w) %v  (%d batches)\n", batch, len(idBatches))
	fmt.Printf("task graph    (16w) %v\n", dag)
	fmt.Printf("critical path       %v (no schedule can beat this)\n", cp)
	fmt.Printf("\nscheduler speedup over batch-barrier: %.2fx\n",
		float64(batch)/float64(dag))

	// And execute for real with the dependency-respecting worker pool.
	done := make(chan int, len(tasks))
	if err := taskflow.RunWorkersFault(g, 4, nil, func(_, task int) error {
		done <- task
		return nil
	}); err != nil {
		panic(err)
	}
	close(done)
	count := 0
	for range done {
		count++
	}
	fmt.Printf("executed %d/%d tasks with the Taskflow-style worker pool\n", count, len(tasks))
}
