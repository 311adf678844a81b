package taskflow

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"fastgr/internal/fault"
	"fastgr/internal/obs"
	"fastgr/internal/sched"
)

// faultGraph builds an n-task graph from an explicit dependency edge
// list, reusing the struct idiom of the other taskflow tests.
func faultGraph(n int, edges [][2]int) *sched.Graph {
	g := independentGraph(n)
	for _, e := range edges {
		g.Succ[e[0]] = append(g.Succ[e[0]], e[1])
		g.Indegree[e[1]]++
		g.Edges++
	}
	return g
}

// faultChainGraph builds 0 → 1 → ... → chain-1 plus an independent tail
// of isolated tasks, so one failure poisons a known suffix while the
// rest completes.
func faultChainGraph(chain, isolated int) *sched.Graph {
	g := independentGraph(chain + isolated)
	for i := 0; i+1 < chain; i++ {
		g.Succ[i] = append(g.Succ[i], i+1)
		g.Indegree[i+1]++
		g.Edges++
	}
	return g
}

func TestFaultReportSkipsDependentsOfFailedTask(t *testing.T) {
	g := faultChainGraph(5, 3) // chain 0..4, isolated 5..7
	var mu sync.Mutex
	ran := map[int]bool{}
	rep := RunWorkersFault(g, 4, nil, func(_, task int) error {
		mu.Lock()
		ran[task] = true
		mu.Unlock()
		if task == 2 {
			return &fault.WorkError{Site: fault.SiteTask, Unit: 2, Attempts: 1, Cause: errors.New("boom")}
		}
		return nil
	})
	if rep.CancelErr != nil {
		t.Fatalf("unexpected cancel: %v", rep.CancelErr)
	}
	if !reflect.DeepEqual(rep.Failed, []int{2}) {
		t.Fatalf("Failed = %v, want [2]", rep.Failed)
	}
	if !reflect.DeepEqual(rep.Skipped, []int{3, 4}) {
		t.Fatalf("Skipped = %v, want [3 4]", rep.Skipped)
	}
	if rep.Completed != 5 { // 0, 1, 5, 6, 7
		t.Fatalf("Completed = %d, want 5", rep.Completed)
	}
	if ran[3] || ran[4] {
		t.Fatal("dependents of the failed task must never run")
	}
	if we := rep.Failure(); we == nil || we.Unit != 2 {
		t.Fatalf("Failure() = %v, want unit 2", we)
	}
}

func TestFaultReportDeterministicAcrossWorkerCounts(t *testing.T) {
	// A wider graph: two diamonds sharing a failing apex dependency.
	build := func() *sched.Graph {
		return faultGraph(9, [][2]int{ // task 8 stays isolated
			{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {5, 6}, {6, 7},
		})
	}
	run := func(workers int) FaultReport {
		return RunWorkersFault(build(), workers, nil, func(_, task int) error {
			if task == 1 || task == 6 {
				return &fault.WorkError{Site: fault.SiteTask, Unit: task, Attempts: 1, Cause: errors.New("boom")}
			}
			return nil
		})
	}
	ref := run(1)
	if !reflect.DeepEqual(ref.Failed, []int{1, 6}) {
		t.Fatalf("Failed = %v, want [1 6]", ref.Failed)
	}
	// 3 depends on both 1 (failed) and 2 (ok) → skipped; 4 depends on 3 →
	// skipped; 7 depends on 6 → skipped.
	if !reflect.DeepEqual(ref.Skipped, []int{3, 4, 7}) {
		t.Fatalf("Skipped = %v, want [3 4 7]", ref.Skipped)
	}
	for _, w := range []int{2, 8} {
		got := run(w)
		if got.Completed != ref.Completed ||
			!reflect.DeepEqual(got.Failed, ref.Failed) ||
			!reflect.DeepEqual(got.Skipped, ref.Skipped) {
			t.Fatalf("report at %d workers differs: %+v vs %+v", w, got, ref)
		}
	}
}

func TestFaultRunWithContainmentRetriesPanics(t *testing.T) {
	g := faultChainGraph(4, 0)
	reg := obs.NewRegistry()
	c := fault.New(fault.Options{Seed: 2}, &obs.Observer{Metrics: reg})
	var mu sync.Mutex
	attempts := map[int]int{}
	body := func(task int) error {
		mu.Lock()
		attempts[task]++
		a := attempts[task]
		mu.Unlock()
		if task == 1 && a == 1 {
			panic("transient")
		}
		if task == 2 {
			panic("permanent")
		}
		return nil
	}
	rep := RunWorkersFault(g, 2, nil, func(worker, task int) error {
		return c.Run(fault.SiteTask, task, worker, func() error { return body(task) })
	})
	if rep.CancelErr != nil {
		t.Fatalf("unexpected cancel: %v", rep.CancelErr)
	}
	// Task 1 recovers on retry and completes; task 2 exhausts attempts
	// and fails; task 3 (dependent of 2) is skipped.
	if !reflect.DeepEqual(rep.Failed, []int{2}) {
		t.Fatalf("Failed = %v, want [2]", rep.Failed)
	}
	if !reflect.DeepEqual(rep.Skipped, []int{3}) {
		t.Fatalf("Skipped = %v, want [3]", rep.Skipped)
	}
	if rep.Completed != 2 {
		t.Fatalf("Completed = %d, want 2", rep.Completed)
	}
	if attempts[1] != 2 {
		t.Fatalf("task 1 attempts = %d, want 2 (panic then success)", attempts[1])
	}
	if attempts[2] != fault.DefaultMaxAttempts {
		t.Fatalf("task 2 attempts = %d, want %d", attempts[2], fault.DefaultMaxAttempts)
	}
	var pe *fault.PanicError
	if we := rep.Failure(); we == nil || !errors.As(we, &pe) {
		t.Fatalf("task 2 failure should wrap a PanicError, got %v", rep.Failure())
	}
	s := reg.Snapshot()
	rec, deg := s.Counters[obs.MFaultRecovered], s.Counters[obs.MFaultDegraded]
	if rec != 1+int64(fault.DefaultMaxAttempts-1) || deg != 1 {
		t.Fatalf("recovered=%d degraded=%d, want %d/1", rec, deg, 1+fault.DefaultMaxAttempts-1)
	}
}

func TestFaultRunCancelMidGraph(t *testing.T) {
	// A long chain: a hard (non-WorkError) failure at task 3 cancels the
	// run. Everything after the cancel must settle without running.
	g := faultChainGraph(50, 10)
	hard := errors.New("hard failure")
	var mu sync.Mutex
	ran := map[int]bool{}
	rep := RunWorkersFault(g, 4, nil, func(_, task int) error {
		mu.Lock()
		ran[task] = true
		mu.Unlock()
		if task == 3 {
			return hard
		}
		return nil
	})
	if rep.CancelErr != hard {
		t.Fatalf("CancelErr = %v, want the hard failure", rep.CancelErr)
	}
	for task := 4; task < 50; task++ {
		if ran[task] {
			t.Fatalf("chain task %d ran after the cancel point", task)
		}
	}
	// Every task settled exactly once: completed + failed + skipped = n.
	if got := rep.Completed + len(rep.Failed) + len(rep.Skipped); got != 60 {
		t.Fatalf("settled %d tasks, want 60", got)
	}
}

func TestFaultRunEmptyAndNilCases(t *testing.T) {
	rep := RunWorkersFault(independentGraph(0), 4, nil, func(_, _ int) error { return nil })
	if rep.Completed != 0 || rep.Failure() != nil {
		t.Fatalf("empty graph report = %+v", rep)
	}
	// All tasks succeed: report is all-complete, no allocations of the
	// failure slices.
	g := faultChainGraph(6, 2)
	rep = RunWorkersFault(g, 3, nil, func(_, _ int) error { return nil })
	if rep.Completed != 8 || rep.Failed != nil || rep.Skipped != nil || rep.CancelErr != nil {
		t.Fatalf("all-success report = %+v", rep)
	}
}
