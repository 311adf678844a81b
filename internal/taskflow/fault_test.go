package taskflow

import (
	"errors"
	"sync"
	"testing"

	"fastgr/internal/fault"
	"fastgr/internal/obs"
	"fastgr/internal/sched"
)

// faultChainGraph builds 0 → 1 → ... → chain-1 plus an independent tail
// of isolated tasks.
func faultChainGraph(chain, isolated int) *sched.Graph {
	g := independentGraph(chain + isolated)
	for i := 0; i+1 < chain; i++ {
		g.Succ[i] = append(g.Succ[i], i+1)
		g.Indegree[i+1]++
		g.Edges++
	}
	return g
}

// TestFaultRunWithContainmentRetriesPanics runs a chain under containment
// the way the rip-up stage does: a contained failure is recorded and the
// body returns nil, so the failed task holds back none of its dependents.
func TestFaultRunWithContainmentRetriesPanics(t *testing.T) {
	g := faultChainGraph(4, 0)
	reg := obs.NewRegistry()
	c := fault.New(fault.Options{Seed: 2}, &obs.Observer{Metrics: reg})
	var mu sync.Mutex
	attempts := map[int]int{}
	var failed []*fault.WorkError
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
	err := RunWorkersFault(g, 2, nil, func(worker, task int) error {
		err := c.Run(fault.SiteTask, task, worker, func() error { return body(task) })
		var we *fault.WorkError
		if errors.As(err, &we) && we.Contained {
			mu.Lock()
			failed = append(failed, we)
			mu.Unlock()
			return nil
		}
		return err
	})
	if err != nil {
		t.Fatalf("unexpected cancel: %v", err)
	}
	// Task 1 recovers on retry; task 2 exhausts its attempts; task 3, its
	// dependent, still runs.
	if len(failed) != 1 || failed[0].Unit != 2 {
		t.Fatalf("contained failures = %v, want unit 2 only", failed)
	}
	var pe *fault.PanicError
	if !errors.As(failed[0], &pe) {
		t.Fatalf("task 2 failure should wrap a PanicError, got %v", failed[0])
	}
	if attempts[1] != 2 {
		t.Fatalf("task 1 attempts = %d, want 2 (panic then success)", attempts[1])
	}
	if attempts[2] != fault.DefaultMaxAttempts {
		t.Fatalf("task 2 attempts = %d, want %d", attempts[2], fault.DefaultMaxAttempts)
	}
	if attempts[3] != 1 {
		t.Fatalf("task 3 attempts = %d, want 1: a contained failure holds back nothing", attempts[3])
	}
	s := reg.Snapshot()
	rec, deg := s.Counters[obs.MFaultRecovered.Name()], s.Counters[obs.MFaultDegraded.Name()]
	if rec != 1+int64(fault.DefaultMaxAttempts-1) || deg != 1 {
		t.Fatalf("recovered=%d degraded=%d, want %d/1", rec, deg, 1+fault.DefaultMaxAttempts-1)
	}
}

func TestFaultRunCancelMidGraph(t *testing.T) {
	// A long chain: an error at task 3 cancels the run. Everything after
	// the cancel must settle without running.
	g := faultChainGraph(50, 10)
	hard := errors.New("hard failure")
	var mu sync.Mutex
	ran := map[int]bool{}
	err := RunWorkersFault(g, 4, nil, func(_, task int) error {
		mu.Lock()
		ran[task] = true
		mu.Unlock()
		if task == 3 {
			return hard
		}
		return nil
	})
	if err != hard {
		t.Fatalf("cancel error = %v, want the hard failure", err)
	}
	for task := 4; task < 50; task++ {
		if ran[task] {
			t.Fatalf("chain task %d ran after the cancel point", task)
		}
	}
}

func TestFaultRunEmptyAndNilCases(t *testing.T) {
	if err := RunWorkersFault(independentGraph(0), 4, nil, func(_, _ int) error { return nil }); err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	// All tasks succeed: every task runs once and nothing cancels.
	g := faultChainGraph(6, 2)
	var mu sync.Mutex
	runs := make([]int, 8)
	err := RunWorkersFault(g, 3, nil, func(_, task int) error {
		mu.Lock()
		runs[task]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("all-success run: %v", err)
	}
	for task, n := range runs {
		if n != 1 {
			t.Fatalf("task %d ran %d times, want once", task, n)
		}
	}
}
