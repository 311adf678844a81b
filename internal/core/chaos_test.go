package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/fault"
	"fastgr/internal/obs"
)

// chaosProbs is the main sweep's injection table: rich degrade paths
// (task exhaustion ~1.6% per task at p=0.25^3, kernel fallbacks, solve
// retries, budget trips) without firing on the plan/scan sites, whose
// failures abort the whole run — the prob-1 abort path gets its own
// dedicated test below.
func chaosProbs() map[string]float64 {
	return map[string]float64{
		fault.SiteTask:   0.25,
		fault.SiteKernel: 0.15,
		fault.SiteSolve:  0.02,
		fault.SiteBudget: 0.05,
	}
}

// chaosRoute runs one variant under injection with a fresh registry and
// returns the result plus the fault counter snapshot.
func chaosRoute(t *testing.T, v Variant, seed int64, workers int) (*Result, obs.Snapshot) {
	t.Helper()
	d := design.MustGenerate("18test5m", testScale)
	opt := DefaultOptions(v)
	opt.T1, opt.T2 = 4, 40
	opt.ExecWorkers = workers
	reg := obs.NewRegistry()
	opt.Obs = &obs.Observer{Metrics: reg}
	opt.Fault = &fault.Options{Seed: seed, Probs: chaosProbs()}
	res, err := Route(d, opt)
	if err != nil {
		t.Fatalf("%v seed=%d workers=%d: chaos run aborted: %v", v, seed, workers, err)
	}
	return res, reg.Snapshot()
}

// TestChaosContainment is the tentpole acceptance suite: every variant ×
// chaos seed × worker count must (a) survive injection without an
// uncontained panic, (b) satisfy the fault accounting equation, and (c)
// produce a bit-identical Report and routed geometry at every worker
// count. Runs under -race in tier1.
func TestChaosContainment(t *testing.T) {
	for _, v := range []Variant{CUGR, FastGRL, FastGRH} {
		for _, seed := range []int64{3, 11} {
			t.Run(fmt.Sprintf("%v/seed=%d", v, seed), func(t *testing.T) {
				type outcome struct {
					rep  Report
					snap obs.Snapshot
				}
				var ref *outcome
				anyInjected := false
				for _, workers := range []int{1, 2, 8} {
					res, snap := chaosRoute(t, v, seed, workers)
					inj := snap.Counters[obs.MFaultInjected]
					rec := snap.Counters[obs.MFaultRecovered]
					deg := snap.Counters[obs.MFaultDegraded]
					if inj != rec+deg {
						t.Fatalf("workers=%d: accounting equation violated: injected=%d recovered=%d degraded=%d",
							workers, inj, rec, deg)
					}
					if inj > 0 {
						anyInjected = true
					}
					o := &outcome{rep: res.Report, snap: snap}
					if ref == nil {
						ref = o
						continue
					}
					// The full Report — quality, modeled times, fault stats —
					// must be bit-identical across worker counts, host
					// measurements (wall clocks, heap high-water) aside.
					a, b := ref.rep, o.rep
					a.Times.PlanWall, b.Times.PlanWall = 0, 0
					a.Times.PatternWall, b.Times.PatternWall = 0, 0
					a.Times.MazeWall, b.Times.MazeWall = 0, 0
					a.Times.WallTotal, b.Times.WallTotal = 0, 0
					a.PeakHeapBytes, b.PeakHeapBytes = 0, 0
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("report differs between 1 and %d workers under chaos:\n%+v\nvs\n%+v",
							workers, a, b)
					}
					if ref.snap.Counters[obs.MFaultInjected] != inj ||
						ref.snap.Counters[obs.MFaultDegraded] != deg ||
						ref.snap.Counters[obs.MFaultRecovered] != rec {
						t.Fatalf("fault counters differ between 1 and %d workers: %v vs inj=%d rec=%d deg=%d",
							workers, ref.snap.Counters, inj, rec, deg)
					}
				}
				if !anyInjected {
					t.Fatalf("%v seed=%d: chaos table never fired — the suite is vacuous", v, seed)
				}
			})
		}
	}
}

// TestChaosGeometryIdenticalAcrossWorkers pins the routed geometry (not
// just the Report) for one chaos configuration across worker counts.
func TestChaosGeometryIdenticalAcrossWorkers(t *testing.T) {
	ref, _ := chaosRoute(t, FastGRH, 3, 1)
	for _, workers := range []int{2, 8} {
		got, _ := chaosRoute(t, FastGRH, 3, workers)
		for _, n := range ref.Design.Nets {
			a, b := ref.Routes[n.ID], got.Routes[n.ID]
			if (a == nil) != (b == nil) {
				t.Fatalf("workers=%d: net %s routed on one side only", workers, n.Name)
			}
			if a != nil && !slices.Equal(a.Edges(), b.Edges()) {
				t.Fatalf("workers=%d: net %s geometry differs under chaos", workers, n.Name)
			}
		}
	}
}

// TestChaosZeroProbabilityByteIdentical: arming the containment layer
// with a zero-probability table must be byte-identical to not arming it
// at all — the production no-cost guarantee, report and geometry both.
func TestChaosZeroProbabilityByteIdentical(t *testing.T) {
	for _, v := range []Variant{CUGR, FastGRH} {
		plain := routeVariant(t, "18test5m", v, nil)
		armed := routeVariant(t, "18test5m", v, func(o *Options) {
			o.Fault = &fault.Options{Seed: 123, Probs: fault.UniformProbs(0)}
		})
		a, b := plain.Report, armed.Report
		a.Times.PlanWall, b.Times.PlanWall = 0, 0
		a.Times.PatternWall, b.Times.PatternWall = 0, 0
		a.Times.MazeWall, b.Times.MazeWall = 0, 0
		a.Times.WallTotal, b.Times.WallTotal = 0, 0
		a.PeakHeapBytes, b.PeakHeapBytes = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: zero-probability armed report differs from unarmed:\n%+v\nvs\n%+v", v, a, b)
		}
		for _, n := range plain.Design.Nets {
			if !slices.Equal(plain.Routes[n.ID].Edges(), armed.Routes[n.ID].Edges()) {
				t.Fatalf("%v: net %s geometry differs with zero-probability armed layer", v, n.Name)
			}
		}
		if b.Fault != (FaultStats{}) {
			t.Fatalf("%v: zero-probability run recorded fault stats: %+v", v, b.Fault)
		}
	}
}

// TestChaosPlanSiteSurfacesWorkError: a plan-site failure cannot degrade
// (every stage needs every tree), so it must surface as a typed
// WorkError — identically at every worker count.
func TestChaosPlanSiteSurfacesWorkError(t *testing.T) {
	d := design.MustGenerate("18test5m", testScale)
	var refMsg string
	var refCounts [3]int64
	for _, workers := range []int{1, 2, 8} {
		opt := DefaultOptions(CUGR)
		opt.T1, opt.T2 = 4, 40
		opt.ExecWorkers = workers
		reg := obs.NewRegistry()
		opt.Obs = &obs.Observer{Metrics: reg}
		opt.Fault = &fault.Options{Seed: 1, Probs: map[string]float64{fault.SitePlan: 1}}
		_, err := Route(d, opt)
		var we *fault.WorkError
		if !errors.As(err, &we) {
			t.Fatalf("workers=%d: want *WorkError, got %v", workers, err)
		}
		if we.Site != fault.SitePlan || we.Unit != 0 || !we.Contained {
			t.Fatalf("workers=%d: unexpected WorkError %+v", workers, we)
		}
		s := reg.Snapshot()
		counts := [3]int64{
			s.Counters[obs.MFaultInjected],
			s.Counters[obs.MFaultRecovered],
			s.Counters[obs.MFaultDegraded],
		}
		// Probability 1 on every attempt: n nets × 3 attempts injected,
		// 2n recovered, n degraded.
		n := int64(len(d.Nets))
		if counts != [3]int64{3 * n, 2 * n, n} {
			t.Fatalf("workers=%d: counters %v, want [%d %d %d]", workers, counts, 3*n, 2*n, n)
		}
		if workers == 1 {
			refMsg, refCounts = err.Error(), counts
			continue
		}
		if err.Error() != refMsg || counts != refCounts {
			t.Fatalf("workers=%d: abort differs from 1 worker: %q vs %q", workers, err.Error(), refMsg)
		}
	}
}

// TestMazeBudgetFallbackKeepsPatternRoute: a real (non-injected) budget
// ceiling makes over-budget nets keep a committed route and records the
// fallback; the run still completes and stays deterministic.
func TestMazeBudgetFallbackKeepsPatternRoute(t *testing.T) {
	run := func(workers int) *Result {
		return routeVariant(t, "18test5m", FastGRH, func(o *Options) {
			o.MazeBudget = 30 // tight: most rip-up searches trip
			o.ExecWorkers = workers
		})
	}
	res := run(4)
	if res.Report.Fault.BudgetFallbacks == 0 {
		t.Fatal("a 30-expansion budget should trip on this design")
	}
	for _, n := range res.Design.Nets {
		if res.Routes[n.ID] == nil {
			t.Fatalf("net %s lost its route to a budget fallback", n.Name)
		}
	}
	ref := run(1)
	a, b := ref.Report, res.Report
	a.Times.PlanWall, b.Times.PlanWall = 0, 0
	a.Times.PatternWall, b.Times.PatternWall = 0, 0
	a.Times.MazeWall, b.Times.MazeWall = 0, 0
	a.Times.WallTotal, b.Times.WallTotal = 0, 0
	a.PeakHeapBytes, b.PeakHeapBytes = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("budgeted report differs across worker counts:\n%+v\nvs\n%+v", a, b)
	}
}
