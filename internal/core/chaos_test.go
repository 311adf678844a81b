package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
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

// chaosGeometry pins every chaos row's routed geometry (see
// chaosGeometryPrint), on both plans. Recorded before the congestion-aware
// maze bound landed, which left every entry unchanged: a bound prunes
// work, it never steers a route. The cut rows were re-recorded once when
// boundary nets began to route whole after the leaves, and every row once
// when all rip-up passes moved onto one executor: rip-up containment is
// keyed by task ID under every variant (CUGR leaves keyed by the index
// within a batch, FastGR cut-plan leaves by the index within the leaf),
// and a contained failure no longer skips its dependents.
var chaosGeometry = map[string]string{
	"CUGR/seed=3":         "e89536c180d69471",
	"CUGR/seed=3/cut":     "aa8408bcb3fde0f3",
	"CUGR/seed=11":        "e5b925c689e4d600",
	"CUGR/seed=11/cut":    "d1652e776ff91b5d",
	"FastGRL/seed=3":      "65e6e906e16e3d7f",
	"FastGRL/seed=3/cut":  "aa8408bcb3fde0f3",
	"FastGRL/seed=11":     "31aa84fd23825503",
	"FastGRL/seed=11/cut": "d1652e776ff91b5d",
	"FastGRH/seed=3":      "0db97489dd50466e",
	"FastGRH/seed=3/cut":  "4666cec948530329",
	"FastGRH/seed=11":     "c32f9854bb3e87e7",
	"FastGRH/seed=11/cut": "0dc21856d42dd0e1",
}

// chaosCutReports pin a chaos run of the cut plan (Shards 2): its
// host-free Report, fault stats included, with boundary reroutes on the
// task graph's workers. Re-recorded when the congestion-aware maze bound
// moved expansion counts and modeled maze times, again when boundary
// nets began to route whole after the leaves, and again with
// chaosGeometry when all rip-up passes moved onto one executor.
var chaosCutReports = map[string]string{
	"CUGR/seed=3/cut":     "fb034d81de1b68f0",
	"CUGR/seed=11/cut":    "23f23642fa69e9a5",
	"FastGRL/seed=3/cut":  "fc988a98219019b9",
	"FastGRL/seed=11/cut": "22b46da14484582b",
	"FastGRH/seed=3/cut":  "19a5ef1b3f2fb3a3",
	"FastGRH/seed=11/cut": "80d8f56d1889fdef",
}

// chaosPlans are the plans every chaos row runs on: the one-leaf plan and
// a two-shard cut plan.
var chaosPlans = []int{0, 2}

// chaosName names a chaos row: variant and seed, plus "/cut" on a cut plan.
func chaosName(v Variant, seed int64, shards int) string {
	name := fmt.Sprintf("%v/seed=%d", v, seed)
	if shards > 0 {
		name += "/cut"
	}
	return name
}

// hostFree drops a Report's host measurements (wall clocks, heap
// high-water), which no determinism contract covers.
func hostFree(r Report) Report {
	r.Times.PlanWall, r.Times.PatternWall, r.Times.MazeWall, r.Times.WallTotal = 0, 0, 0, 0
	r.PeakHeapBytes = 0
	return r
}

// chaosGeometryPrint hashes every net's sealed edge list. (Guide bytes,
// which the determinism table hashes too, are a function of these lists,
// and the guide package cannot be imported from package core.)
func chaosGeometryPrint(res *Result) string {
	h := sha256.New()
	for _, n := range res.Design.Nets {
		if rt := res.Routes[n.ID]; rt != nil {
			fmt.Fprintf(h, "%d:%v\n", n.ID, rt.Edges())
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// chaosReportPrint hashes a run's host-free Report.
func chaosReportPrint(res *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v", hostFree(res.Report))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// chaosRoute runs one variant under injection on a plan (Shards) with a
// fresh registry and returns the result plus the fault counter snapshot.
func chaosRoute(t *testing.T, v Variant, seed int64, shards, workers int) (*Result, obs.Snapshot) {
	t.Helper()
	d := design.MustGenerate("18test5m", testScale)
	opt := DefaultOptions(v)
	opt.T1, opt.T2 = 4, 40
	opt.Shards = shards
	opt.ExecWorkers = workers
	reg := obs.NewRegistry()
	opt.Obs = &obs.Observer{Metrics: reg}
	opt.Fault = &fault.Options{Seed: seed, Probs: chaosProbs()}
	res, err := Route(d, opt)
	if err != nil {
		t.Fatalf("%s workers=%d: chaos run aborted: %v", chaosName(v, seed, shards), workers, err)
	}
	return res, reg.Snapshot()
}

// TestChaosContainment is the tentpole acceptance suite: every plan ×
// variant × chaos seed × worker count must (a) survive injection without
// an uncontained panic, (b) satisfy the fault accounting equation, and (c)
// produce a bit-identical Report and routed geometry at every worker
// count; every row must also match chaosGeometry, and a cut-plan row
// chaosCutReports. Runs under -race
// in tier1.
func TestChaosContainment(t *testing.T) {
	for _, shards := range chaosPlans {
		for _, v := range []Variant{CUGR, FastGRL, FastGRH} {
			for _, seed := range []int64{3, 11} {
				name := chaosName(v, seed, shards)
				t.Run(name, func(t *testing.T) {
					var ref *Result
					var refSnap obs.Snapshot
					anyInjected := false
					for _, workers := range []int{1, 2, 8} {
						res, snap := chaosRoute(t, v, seed, shards, workers)
						checkDemandMatchesRoutes(t, res)
						inj := snap.Counters[obs.MFaultInjected.Name()]
						rec := snap.Counters[obs.MFaultRecovered.Name()]
						deg := snap.Counters[obs.MFaultDegraded.Name()]
						if inj != rec+deg {
							t.Fatalf("workers=%d: accounting equation violated: injected=%d recovered=%d degraded=%d",
								workers, inj, rec, deg)
						}
						if inj > 0 {
							anyInjected = true
						}
						if ref == nil {
							ref, refSnap = res, snap
							if got, want := chaosGeometryPrint(res), chaosGeometry[name]; got != want {
								t.Errorf("chaos geometry print %s, recorded %s: routes moved", got, want)
							}
							if want, ok := chaosCutReports[name]; ok && chaosReportPrint(res) != want {
								t.Errorf("chaos report print %s, recorded %s: the report moved", chaosReportPrint(res), want)
							}
							continue
						}
						// The full Report — quality, modeled times, fault
						// stats — must be bit-identical across worker counts.
						if a, b := hostFree(ref.Report), hostFree(res.Report); !reflect.DeepEqual(a, b) {
							t.Fatalf("report differs between 1 and %d workers under chaos:\n%+v\nvs\n%+v",
								workers, a, b)
						}
						if refSnap.Counters[obs.MFaultInjected.Name()] != inj ||
							refSnap.Counters[obs.MFaultDegraded.Name()] != deg ||
							refSnap.Counters[obs.MFaultRecovered.Name()] != rec {
							t.Fatalf("fault counters differ between 1 and %d workers: %v vs inj=%d rec=%d deg=%d",
								workers, refSnap.Counters, inj, rec, deg)
						}
					}
					if !anyInjected {
						t.Fatalf("%s: chaos table never fired — the suite is vacuous", name)
					}
				})
			}
		}
	}
}

// TestChaosFaultMarkersOnWorkerLanes requires every fault marker to be
// drawn on the lane of the worker that ran the faulted unit. A traced
// cut-plan run (FastGRH, Shards 2, 8 workers) injects on kernel solves and
// rip-up tasks. Each fault:* marker must lie inside the span of the unit's
// own work on its own lane: a solve's inside a par.chunk span of the
// kernel's fan-out, a rip-up task's inside its maze:<net> span. The traced
// run must route exactly like an untraced one.
func TestChaosFaultMarkersOnWorkerLanes(t *testing.T) {
	d := design.MustGenerate("18test5m", testScale)
	opt := DefaultOptions(FastGRH)
	opt.T1, opt.T2 = 4, 40
	opt.Shards = 2
	opt.ExecWorkers = 8
	opt.Fault = &fault.Options{Seed: 3, Probs: map[string]float64{fault.SiteSolve: 0.3, fault.SiteTask: 0.3}}
	plain, err := Route(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(1<<18, opt.ExecWorkers)
	opt.Obs = &obs.Observer{Tracer: tr}
	res, err := Route(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hostFree(plain.Report), hostFree(res.Report)) || chaosGeometryPrint(plain) != chaosGeometryPrint(res) {
		t.Fatal("tracing changed the routed result")
	}
	if tr.Dropped() > 0 {
		t.Fatalf("tracer dropped %d spans", tr.Dropped())
	}

	// The span a unit's work draws on its worker's lane, by fault site.
	unitSpan := map[string]string{
		"fault:" + fault.SiteSolve: "par.chunk",
		"fault:" + fault.SiteTask:  "maze:",
	}
	var units, markers []obs.Event
	for _, e := range tr.Events() {
		switch {
		case strings.HasPrefix(e.Name, "fault:"):
			markers = append(markers, e)
		case e.Name == "par.chunk" || strings.HasPrefix(e.Name, "maze:"):
			units = append(units, e)
		}
	}
	sites := map[string]int{}
	for _, m := range markers {
		sites[m.Name]++
		want, ok := unitSpan[m.Name]
		if !ok {
			t.Fatalf("unexpected marker %s", m.Name)
		}
		if !slices.ContainsFunc(units, func(u obs.Event) bool {
			return strings.HasPrefix(u.Name, want) && u.Lane == m.Lane && u.Depth < m.Depth &&
				u.Start <= m.Start && m.Start+m.Dur <= u.Start+u.Dur
		}) {
			t.Fatalf("%s on lane %d at %v lies in no enclosing %s span on its lane", m.Name, m.Lane, m.Start, want)
		}
	}
	for _, site := range []string{fault.SiteSolve, fault.SiteTask} {
		if sites["fault:"+site] == 0 {
			t.Fatalf("no fault:%s markers; the check is vacuous (markers: %v)", site, sites)
		}
	}
}

// TestChaosGeometryIdenticalAcrossWorkers pins the routed geometry (not
// just the Report) for one chaos configuration across worker counts, on
// both plans.
func TestChaosGeometryIdenticalAcrossWorkers(t *testing.T) {
	for _, shards := range chaosPlans {
		ref, _ := chaosRoute(t, FastGRH, 3, shards, 1)
		for _, workers := range []int{2, 8} {
			got, _ := chaosRoute(t, FastGRH, 3, shards, workers)
			for _, n := range ref.Design.Nets {
				a, b := ref.Routes[n.ID], got.Routes[n.ID]
				if (a == nil) != (b == nil) {
					t.Fatalf("shards=%d workers=%d: net %s routed on one side only", shards, workers, n.Name)
				}
				if a != nil && !slices.Equal(a.Edges(), b.Edges()) {
					t.Fatalf("shards=%d workers=%d: net %s geometry differs under chaos", shards, workers, n.Name)
				}
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
		a, b := hostFree(plain.Report), hostFree(armed.Report)
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
			s.Counters[obs.MFaultInjected.Name()],
			s.Counters[obs.MFaultRecovered.Name()],
			s.Counters[obs.MFaultDegraded.Name()],
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
	a, b := hostFree(ref.Report), hostFree(res.Report)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("budgeted report differs across worker counts:\n%+v\nvs\n%+v", a, b)
	}
}

// TestContainedFailureHoldsBackNothing fails every rip-up task: rrr.task
// injected at probability 1 exhausts containment on each one, for every
// variant on both plans at 1, 2 and 8 workers. A failed task keeps its
// net's old route and holds back no other task, so every task of every
// iteration runs and fails: FailedNets is the sum of the iterations'
// violating nets, the routes are the pattern stage's (a run with no
// rip-up at all), and committed demand still equals the routes' demand.
func TestContainedFailureHoldsBackNothing(t *testing.T) {
	d := design.MustGenerate("18test5m", testScale)
	for _, shards := range chaosPlans {
		for _, v := range []Variant{CUGR, FastGRL, FastGRH} {
			name := chaosName(v, 1, shards)
			opt := DefaultOptions(v)
			opt.T1, opt.T2 = 4, 40
			opt.Shards = shards
			opt.RRRIters = 0
			plain, err := Route(d, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := chaosGeometryPrint(plain)
			opt.RRRIters = DefaultOptions(v).RRRIters
			opt.Fault = &fault.Options{Seed: 1, Probs: map[string]float64{fault.SiteTask: 1}}
			for _, workers := range []int{1, 2, 8} {
				opt.ExecWorkers = workers
				res, err := Route(d, opt)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				ripped := 0
				for _, it := range res.Report.RRR {
					ripped += it.Nets
					if it.FailedNets != it.Nets {
						t.Errorf("%s workers=%d: an iteration failed %d of its %d nets", name, workers, it.FailedNets, it.Nets)
					}
				}
				if ripped == 0 {
					t.Fatalf("%s workers=%d: no rip-up work; the check is vacuous", name, workers)
				}
				if got := res.Report.Fault.FailedNets; got != ripped {
					t.Errorf("%s workers=%d: FailedNets %d, want every ripped net (%d)", name, workers, got, ripped)
				}
				if got := chaosGeometryPrint(res); got != want {
					t.Errorf("%s workers=%d: geometry print %s, want the pattern stage's %s", name, workers, got, want)
				}
				checkDemandMatchesRoutes(t, res)
			}
		}
	}
}
