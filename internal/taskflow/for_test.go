package taskflow

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"fastgr/internal/fault"
	"fastgr/internal/obs"
)

// forAll is For with an infallible body.
func forAll(workers, n int, o *obs.Observer, fn func(worker, i int)) {
	if err := For(workers, n, o, func(w, i int) error { fn(w, i); return nil }); err != nil {
		panic(err)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-3, 0, 1, 2, 3, 8, 64} {
		for _, n := range []int{-1, 0, 1, 2, 7, 100, 1000} {
			hits := make([]int32, max(n, 0))
			forAll(workers, n, nil, func(_, i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForWorkerIDsWithinBound(t *testing.T) {
	for _, c := range []struct{ workers, bound int }{{5, 5}, {-3, 1}, {0, 1}} {
		var bad atomic.Int32
		forAll(c.workers, 300, nil, func(w, _ int) {
			if w < 0 || w >= c.bound {
				bad.Add(1)
			}
		})
		if bad.Load() != 0 {
			t.Fatalf("workers=%d: worker id outside [0, %d)", c.workers, c.bound)
		}
	}
}

// TestForWorkerScratchAffinity verifies the property the router's
// per-worker scratch depends on: a worker id is never used by two
// goroutines at once, so scratch indexed by worker needs no locking.
func TestForWorkerScratchAffinity(t *testing.T) {
	const workers, n = 4, 2000
	inUse := make([]atomic.Int32, workers)
	var clashes atomic.Int32
	forAll(workers, n, nil, func(w, _ int) {
		if inUse[w].Add(1) != 1 {
			clashes.Add(1)
		}
		inUse[w].Add(-1)
	})
	if clashes.Load() != 0 {
		t.Fatal("two goroutines shared a worker id concurrently")
	}
}

func TestForClampsWorkersToN(t *testing.T) {
	// More workers than indices must not deadlock or double-visit, and
	// only n workers start.
	var count atomic.Int32
	var seen [16]atomic.Bool
	forAll(16, 3, nil, func(w, _ int) {
		count.Add(1)
		seen[w].Store(true)
	})
	if count.Load() != 3 {
		t.Fatalf("visited %d indices, want 3", count.Load())
	}
	for w := 3; w < len(seen); w++ {
		if seen[w].Load() {
			t.Fatalf("worker %d ran with only 3 indices", w)
		}
	}
}

func TestForConcurrentCalls(t *testing.T) {
	// Distinct calls may run concurrently without interfering.
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum := make([]int64, 100)
			forAll(3, 100, nil, func(_, i int) { sum[i] = int64(i) })
			var s int64
			for _, v := range sum {
				s += v
			}
			if s != 4950 {
				t.Errorf("sum = %d, want 4950", s)
			}
		}()
	}
	wg.Wait()
}

// TestForObservation checks the flight-recorder hooks on the parallel
// path: For records one par.chunk span per claimed chunk on the claiming
// worker's lane, plus one wait and one run observation per chunk; with a
// nil observer nothing is recorded and the loop still covers every index.
func TestForObservation(t *testing.T) {
	o := &obs.Observer{Tracer: obs.NewTracer(1<<10, 4), Metrics: obs.NewRegistry()}
	hits := make([]int32, 500)
	forAll(4, len(hits), o, func(_, i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times with observer attached", i, h)
		}
	}
	if o.Tracer.Recorded() == 0 {
		t.Fatal("no par.chunk spans recorded")
	}
	for _, e := range o.Tracer.Events() {
		if e.Name != "par.chunk" {
			t.Fatalf("unexpected span %q", e.Name)
		}
		if e.Lane < 1 || e.Lane > 4 {
			t.Fatalf("par.chunk on lane %d, want a worker lane in [1,4]", e.Lane)
		}
	}
	s := o.Metrics.Snapshot()
	wait, run := s.Histograms[obs.MParWaitNs.Name()], s.Histograms[obs.MParRunNs.Name()]
	if wait.Count == 0 || run.Count == 0 {
		t.Fatalf("wait/run histograms empty: %d/%d", wait.Count, run.Count)
	}
	if wait.Count != run.Count || wait.Count != int64(o.Tracer.Recorded()) {
		t.Fatalf("wait=%d run=%d spans=%d, want all equal",
			wait.Count, run.Count, o.Tracer.Recorded())
	}
}

// TestForObservationSequentialPath covers the one-worker path: a single
// par.chunk span on worker 0's lane and one zero-wait observation.
func TestForObservationSequentialPath(t *testing.T) {
	o := &obs.Observer{Tracer: obs.NewTracer(16, 1), Metrics: obs.NewRegistry()}
	var n int32
	forAll(1, 10, o, func(_, _ int) { atomic.AddInt32(&n, 1) })
	if n != 10 {
		t.Fatalf("covered %d indices, want 10", n)
	}
	if got := o.Tracer.Recorded(); got != 1 {
		t.Fatalf("sequential path recorded %d spans, want 1", got)
	}
	if e := o.Tracer.Events()[0]; e.Name != "par.chunk" || e.Lane != 1 {
		t.Fatalf("sequential span %q on lane %d, want par.chunk on lane 1", e.Name, e.Lane)
	}
	s := o.Metrics.Snapshot()
	if w := s.Histograms[obs.MParWaitNs.Name()]; w.Count != 1 || w.Max != 0 {
		t.Fatalf("sequential wait histogram = %+v, want one zero observation", w)
	}
}

// TestForReturnsLowestFailingIndex: every index runs even when some fail,
// and the error returned is the lowest failing index's at every worker
// count.
func TestForReturnsLowestFailingIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		results := make([]int, 100)
		err := For(workers, 100, nil, func(_, i int) error {
			results[i] = i * i
			if i%10 == 3 {
				return fmt.Errorf("unit %d says no", i)
			}
			return nil
		})
		for i, v := range results {
			if v != i*i {
				t.Fatalf("workers=%d: unit %d did not run", workers, i)
			}
		}
		if err == nil || err.Error() != "unit 3 says no" {
			t.Fatalf("workers=%d: err = %v, want unit 3's", workers, err)
		}
	}
}

// TestForNilOnSuccess: a call in which no index fails returns nil at every
// worker count, including the inline single-worker path.
func TestForNilOnSuccess(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		if err := For(workers, 50, nil, func(_, _ int) error { return nil }); err != nil {
			t.Fatalf("workers=%d: want nil on success, got %v", workers, err)
		}
	}
}

// TestForUnderContainment runs bodies under fault containment the way the
// router's plan, scan and solve fan-outs do: a panicking unit is
// contained into a *fault.WorkError instead of crashing the process.
func TestForUnderContainment(t *testing.T) {
	reg := obs.NewRegistry()
	c := fault.New(fault.Options{Seed: 3, Probs: map[string]float64{fault.SiteTask: 0.2}},
		&obs.Observer{Metrics: reg})
	err := For(4, 200, nil, func(w, i int) error {
		return c.Run(fault.SiteTask, i, w, func() error {
			if i == 77 {
				panic("unit 77 explodes")
			}
			return nil
		})
	})
	// Unit 77 panics on every attempt, so some unit at or below 77 must
	// have exhausted containment; injection exhaustion may fail lower ones.
	var we *fault.WorkError
	if !errors.As(err, &we) || !we.Contained || we.Unit > 77 {
		t.Fatalf("want a contained WorkError of a unit <= 77, got %v", err)
	}
	if we.Unit == 77 {
		var pe *fault.PanicError
		if !errors.As(we, &pe) && !errors.Is(we, fault.ErrInjected) {
			t.Fatalf("unit 77 cause should be a panic or injection, got %v", we.Cause)
		}
	}
	if reg.Snapshot().Counters[obs.MFaultInjected.Name()] == 0 {
		t.Fatal("probability-0.2 injection never fired over 200 units")
	}
}

// TestForFailureSetIdenticalAcrossWorkerCounts: injections are keyed by
// (site, unit, attempt), never by worker or chunk, so the set of units
// that exhaust containment, and with it the error For returns, is the
// same at every worker count.
func TestForFailureSetIdenticalAcrossWorkerCounts(t *testing.T) {
	shape := func(workers int) (failed []int, first string) {
		c := fault.New(fault.Options{Seed: 11, Probs: map[string]float64{fault.SiteScan: 0.15}}, nil)
		var mu sync.Mutex
		err := For(workers, 300, nil, func(w, i int) error {
			err := c.Run(fault.SiteScan, i, w, func() error { return nil })
			if err != nil {
				mu.Lock()
				failed = append(failed, i)
				mu.Unlock()
			}
			return err
		})
		slices.Sort(failed)
		return failed, fmt.Sprint(err)
	}
	ref, refErr := shape(1)
	if len(ref) == 0 {
		t.Fatal("expected some exhausted units at p=0.15 over 300 units")
	}
	for _, w := range []int{2, 8} {
		if got, gotErr := shape(w); !reflect.DeepEqual(got, ref) || gotErr != refErr {
			t.Fatalf("failure set at %d workers differs from 1 worker:\n%v %s\nvs\n%v %s", w, got, gotErr, ref, refErr)
		}
	}
}
