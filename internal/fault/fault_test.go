package fault

import (
	"errors"
	"fmt"
	"testing"

	"fastgr/internal/obs"
)

func newCounted() (*Containment, *obs.Registry) {
	reg := obs.NewRegistry()
	c := New(Options{Seed: 1, Probs: map[string]float64{SiteTask: 1}}, &obs.Observer{Metrics: reg})
	return c, reg
}

func counters(reg *obs.Registry) (injected, recovered, degraded, retries int64) {
	s := reg.Snapshot()
	return s.Counters[obs.MFaultInjected.Name()], s.Counters[obs.MFaultRecovered.Name()],
		s.Counters[obs.MFaultDegraded.Name()], s.Counters[obs.MFaultRetries.Name()]
}

func TestFireIsPureFunctionOfCoordinates(t *testing.T) {
	in := NewInjector(42, map[string]float64{SiteTask: 0.3, SiteKernel: 0.1})
	// Record a reference sweep, then re-query in a different order: the
	// decision must not depend on call history.
	type key struct {
		site          string
		unit, attempt int
	}
	ref := map[key]bool{}
	for _, site := range []string{SiteTask, SiteKernel} {
		for unit := 0; unit < 200; unit++ {
			for attempt := 0; attempt < 3; attempt++ {
				ref[key{site, unit, attempt}] = in.Fire(site, unit, attempt)
			}
		}
	}
	fired := 0
	for unit := 199; unit >= 0; unit-- {
		for _, site := range []string{SiteKernel, SiteTask} {
			for attempt := 2; attempt >= 0; attempt-- {
				got := in.Fire(site, unit, attempt)
				if got != ref[key{site, unit, attempt}] {
					t.Fatalf("Fire(%s,%d,%d) changed between sweeps", site, unit, attempt)
				}
				if got {
					fired++
				}
			}
		}
	}
	if fired == 0 {
		t.Fatal("probability-0.3/0.1 injector never fired over 1200 coordinates")
	}
	// Unlisted site and nil injector never fire.
	if in.Fire(SitePlan, 0, 0) {
		t.Fatal("unlisted site fired")
	}
	var nilIn *Injector
	if nilIn.Fire(SiteTask, 0, 0) {
		t.Fatal("nil injector fired")
	}
}

func TestFireRateTracksProbability(t *testing.T) {
	in := NewInjector(7, map[string]float64{SiteTask: 0.25})
	fired := 0
	const n = 20000
	for unit := 0; unit < n; unit++ {
		if in.Fire(SiteTask, unit, 0) {
			fired++
		}
	}
	rate := float64(fired) / n
	if rate < 0.22 || rate > 0.28 {
		t.Fatalf("fire rate %.4f far from configured 0.25", rate)
	}
}

func TestNewInjectorDropsZeroEntries(t *testing.T) {
	if NewInjector(1, nil) != nil {
		t.Fatal("empty table should yield nil injector")
	}
	if NewInjector(1, map[string]float64{SiteTask: 0, SiteKernel: -1}) != nil {
		t.Fatal("all-zero table should yield nil injector")
	}
	if NewInjector(1, UniformProbs(0.5)) == nil {
		t.Fatal("nonzero table should yield an injector")
	}
}

func TestRunRetriesInjectionToExhaustion(t *testing.T) {
	c, reg := newCounted()
	calls := 0
	err := c.Run(SiteTask, 9, 0, func() error { calls++; return nil })
	if calls != 0 {
		t.Fatalf("probability-1 injection should fire before the body; body ran %d times", calls)
	}
	var we *WorkError
	if !errors.As(err, &we) {
		t.Fatalf("want *WorkError, got %v", err)
	}
	if we.Site != SiteTask || we.Unit != 9 || we.Attempts != DefaultMaxAttempts || !we.Contained {
		t.Fatalf("unexpected WorkError fields: %+v", we)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("cause should unwrap to ErrInjected, got %v", we.Cause)
	}
	inj, rec, deg, ret := counters(reg)
	if inj != 3 || rec != 2 || deg != 1 || ret != 2 {
		t.Fatalf("counters injected=%d recovered=%d degraded=%d retries=%d, want 3/2/1/2", inj, rec, deg, ret)
	}
	if inj != rec+deg {
		t.Fatalf("accounting equation violated: %d != %d + %d", inj, rec, deg)
	}
}

func TestRunRecoversPanicThenSucceeds(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Options{Seed: 1}, &obs.Observer{Metrics: reg})
	calls := 0
	err := c.Run(SiteTask, 0, 0, func() error {
		calls++
		if calls < 3 {
			panic(fmt.Sprintf("boom %d", calls))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("third attempt succeeds, want nil error, got %v", err)
	}
	inj, rec, deg, ret := counters(reg)
	if inj != 0 || rec != 2 || deg != 0 || ret != 2 {
		t.Fatalf("counters injected=%d recovered=%d degraded=%d retries=%d, want 0/2/0/2", inj, rec, deg, ret)
	}
}

func TestRunPanicExhaustionSurfacesPanicError(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Options{Seed: 1, MaxAttempts: 2}, &obs.Observer{Metrics: reg})
	err := c.Run(SiteSolve, 4, 1, func() error { panic("always") })
	var we *WorkError
	if !errors.As(err, &we) {
		t.Fatalf("want *WorkError, got %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "always" {
		t.Fatalf("cause should be *PanicError{always}, got %v", we.Cause)
	}
	if we.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", we.Attempts)
	}
	_, rec, deg, _ := counters(reg)
	if rec != 1 || deg != 1 {
		t.Fatalf("recovered=%d degraded=%d, want 1/1", rec, deg)
	}
}

func TestRunPassesBodyErrorsThroughWithoutRetry(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Options{Seed: 1}, &obs.Observer{Metrics: reg})
	sentinel := errors.New("unit outcome")
	calls := 0
	err := c.Run(SiteTask, 0, 0, func() error { calls++; return sentinel })
	if err != sentinel {
		t.Fatalf("body error should pass through verbatim, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("body error must not be retried; body ran %d times", calls)
	}
	inj, rec, deg, ret := counters(reg)
	if inj+rec+deg+ret != 0 {
		t.Fatalf("body errors must not touch fault counters: %d/%d/%d/%d", inj, rec, deg, ret)
	}
}

func TestRunOnceDegradesOnFirstContainedFailure(t *testing.T) {
	c, reg := newCounted()
	err := c.RunOnce(SiteTask, 2, 0, func() error { return nil })
	var we *WorkError
	if !errors.As(err, &we) || we.Attempts != 1 || !we.Contained {
		t.Fatalf("want single-attempt contained WorkError, got %v", err)
	}
	inj, rec, deg, _ := counters(reg)
	if inj != 1 || rec != 0 || deg != 1 {
		t.Fatalf("counters injected=%d recovered=%d degraded=%d, want 1/0/1", inj, rec, deg)
	}
	// Body errors pass through RunOnce uncounted too.
	sentinel := errors.New("kernel says no")
	reg2 := obs.NewRegistry()
	c2 := New(Options{Seed: 1}, &obs.Observer{Metrics: reg2})
	if got := c2.RunOnce(SiteKernel, 0, 0, func() error { return sentinel }); got != sentinel {
		t.Fatalf("want sentinel passthrough, got %v", got)
	}
}

func TestInjectBudgetCountsInjectedAndDegraded(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Options{Seed: 5, Probs: map[string]float64{SiteBudget: 1}}, &obs.Observer{Metrics: reg})
	if !c.InjectBudget(3, 0) {
		t.Fatal("probability-1 budget injection did not fire")
	}
	inj, rec, deg, _ := counters(reg)
	if inj != 1 || rec != 0 || deg != 1 {
		t.Fatalf("counters injected=%d recovered=%d degraded=%d, want 1/0/1", inj, rec, deg)
	}
	// Other sites' probabilities never leak into the budget site.
	c2 := New(Options{Seed: 5, Probs: map[string]float64{SiteTask: 1}}, nil)
	if c2.InjectBudget(3, 0) {
		t.Fatal("budget injection fired off a task-site probability")
	}
}

func TestNilContainmentIsDisabledLayer(t *testing.T) {
	var c *Containment
	if c.Enabled() {
		t.Fatal("nil containment reports enabled")
	}
	if c.MaxAttempts() != 1 {
		t.Fatalf("nil MaxAttempts = %d, want 1", c.MaxAttempts())
	}
	calls := 0
	if err := c.Run(SiteTask, 0, 0, func() error { calls++; return nil }); err != nil || calls != 1 {
		t.Fatalf("nil Run should call the body once: err=%v calls=%d", err, calls)
	}
	if err := c.RunOnce(SiteTask, 0, 0, func() error { calls++; return nil }); err != nil || calls != 2 {
		t.Fatalf("nil RunOnce should call the body once: err=%v calls=%d", err, calls)
	}
	if c.InjectBudget(0, 0) {
		t.Fatal("nil InjectBudget fired")
	}
	c.Degrade(SiteBudget, 1) // must not panic
}

func TestZeroProbabilityNeverFires(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Options{Seed: 99, Probs: UniformProbs(0)}, &obs.Observer{Metrics: reg})
	for unit := 0; unit < 500; unit++ {
		if err := c.Run(SiteTask, unit, 0, func() error { return nil }); err != nil {
			t.Fatalf("zero-probability run failed: %v", err)
		}
		if c.InjectBudget(unit, 0) {
			t.Fatal("zero-probability budget injection fired")
		}
	}
	inj, rec, deg, ret := counters(reg)
	if inj+rec+deg+ret != 0 {
		t.Fatalf("zero-probability counters nonzero: %d/%d/%d/%d", inj, rec, deg, ret)
	}
}

func TestSortWorkErrors(t *testing.T) {
	errs := []*WorkError{
		{Site: SiteTask, Unit: 5},
		{Site: SitePlan, Unit: 9},
		{Site: SiteTask, Unit: 1},
	}
	SortWorkErrors(errs)
	want := []struct {
		site string
		unit int
	}{{SitePlan, 9}, {SiteTask, 1}, {SiteTask, 5}}
	for i, w := range want {
		if errs[i].Site != w.site || errs[i].Unit != w.unit {
			t.Fatalf("order[%d] = (%s,%d), want (%s,%d)", i, errs[i].Site, errs[i].Unit, w.site, w.unit)
		}
	}
}

func TestWorkErrorFormatting(t *testing.T) {
	we := &WorkError{Site: SiteTask, Unit: 7, Attempts: 3, Contained: true, Cause: ErrInjected}
	want := "fault: rrr.task unit 7 failed after 3 attempt(s): injected fault"
	if we.Error() != want {
		t.Fatalf("Error() = %q, want %q", we.Error(), want)
	}
	if !errors.Is(we, ErrInjected) {
		t.Fatal("WorkError should unwrap to its cause")
	}
	pe := &PanicError{Value: 42}
	if pe.Error() != "panic: 42" {
		t.Fatalf("PanicError.Error() = %q", pe.Error())
	}
}

func TestUniformProbsCoversEverySite(t *testing.T) {
	m := UniformProbs(0.5)
	if len(m) != len(Sites) {
		t.Fatalf("UniformProbs has %d entries, want %d", len(m), len(Sites))
	}
	for _, s := range Sites {
		if m[s] != 0.5 {
			t.Fatalf("site %s missing from UniformProbs", s)
		}
	}
}

func TestSnapshotAttributesCountersPerSite(t *testing.T) {
	var nilc *Containment
	if got := nilc.Snapshot(); got != nil {
		t.Fatalf("nil Snapshot = %v, want nil", got)
	}
	c, reg := newCounted()
	if got := c.Snapshot(); len(got) != 0 {
		t.Fatalf("fresh Snapshot should omit all-zero sites, got %v", got)
	}

	// Probability-1 injection at the task site, retried to exhaustion:
	// DefaultMaxAttempts injections, all but the last recovered.
	_ = c.Run(SiteTask, 9, 0, func() error { return nil })
	// An explicit budget degradation lands under its own site.
	c.Degrade(SiteBudget, 2)

	snap := c.Snapshot()
	task, ok := snap[SiteTask]
	if !ok {
		t.Fatalf("task site missing from snapshot: %v", snap)
	}
	if task.Injected != 3 || task.Recovered != 2 || task.Degraded != 1 || task.Retries != 2 {
		t.Fatalf("task stats %+v, want 3/2/1/2", task)
	}
	if task.Injected != task.Recovered+task.Degraded {
		t.Fatalf("site accounting equation violated: %+v", task)
	}
	if b := snap[SiteBudget]; b.Degraded != 2 {
		t.Fatalf("budget site %+v, want degraded=2", b)
	}
	if _, leaked := snap[SiteKernel]; leaked {
		t.Fatalf("untouched kernel site leaked into snapshot: %v", snap)
	}

	// Per-site stats decompose the aggregate run-level counters exactly.
	inj, rec, deg, ret := counters(reg)
	var si, sr, sd, st int64
	for _, s := range snap {
		si += s.Injected
		sr += s.Recovered
		sd += s.Degraded
		st += s.Retries
	}
	if si != inj || sr != rec || sd != deg || st != ret {
		t.Fatalf("snapshot sums %d/%d/%d/%d != registry counters %d/%d/%d/%d",
			si, sr, sd, st, inj, rec, deg, ret)
	}
}
