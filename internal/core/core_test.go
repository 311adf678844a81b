package core

import (
	"math"
	"strings"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/fault"
	"fastgr/internal/geom"
	"fastgr/internal/sched"
)

const testScale = 0.005

func routeVariant(t *testing.T, name string, v Variant, mutate func(*Options)) *Result {
	t.Helper()
	d := design.MustGenerate(name, testScale)
	opt := DefaultOptions(v)
	opt.T1, opt.T2 = 4, 40 // thresholds scaled for the small test grids
	if mutate != nil {
		mutate(&opt)
	}
	res, err := Route(d, opt)
	if err != nil {
		t.Fatalf("%s/%v: %v", name, v, err)
	}
	return res
}

// netTerminals lists a net's pins as 3-D terminals, taken from the design
// rather than from the router's own Steiner tree.
func netTerminals(n *design.Net) []geom.Point3 {
	pins := make([]geom.Point3, len(n.Pins))
	for i, p := range n.Pins {
		pins[i] = geom.Point3{X: p.Pos.X, Y: p.Pos.Y, Layer: p.Layer}
	}
	return pins
}

func TestAllVariantsRouteAndConnect(t *testing.T) {
	for _, v := range []Variant{CUGR, FastGRL, FastGRH} {
		res := routeVariant(t, "18test5m", v, nil)
		// Every net's route must connect its pins.
		for _, n := range res.Design.Nets {
			r := res.Routes[n.ID]
			if r == nil {
				t.Fatalf("%v: net %s unrouted", v, n.Name)
			}
			if err := r.Validate(res.Grid, netTerminals(n)); err != nil {
				t.Fatalf("%v: net %s: %v", v, n.Name, err)
			}
		}
		rep := res.Report
		if rep.Quality.Wirelength == 0 || rep.Quality.Vias == 0 {
			t.Fatalf("%v: empty quality: %+v", v, rep.Quality)
		}
		if rep.Score != rep.Quality.Score() {
			t.Fatalf("%v: score mismatch", v)
		}
		if rep.Times.Total != rep.Times.Pattern+rep.Times.Maze {
			t.Fatalf("%v: TOTAL != PATTERN+MAZE", v)
		}
	}
}

func TestCommittedDemandMatchesRoutes(t *testing.T) {
	res := routeVariant(t, "18test5m", FastGRL, nil)
	for _, n := range res.Design.Nets {
		if res.Routes[n.ID] == nil {
			t.Fatalf("net %s unrouted", n.Name)
		}
	}
	checkDemandMatchesRoutes(t, res)
}

// checkDemandMatchesRoutes asserts grid demand equals the union of the
// result's routes: rip every route up and expect a clean grid (catches
// commit/uncommit imbalances). Nets without a route — in a cancelled run's
// partial result — contribute nothing and must have left nothing behind.
func checkDemandMatchesRoutes(t *testing.T, res *Result) {
	t.Helper()
	for _, rt := range res.Routes {
		if rt != nil {
			rt.Uncommit(res.Grid)
		}
	}
	wire, via := res.Grid.TotalDemand()
	if wire != 0 || via != 0 {
		t.Fatalf("residual demand after full rip-up: wire=%d via=%d", wire, via)
	}
}

// CheckDemandMatchesRoutes is checkDemandMatchesRoutes for the external
// determinism tests. Like it, it rips every route of res up.
func CheckDemandMatchesRoutes(t *testing.T, res *Result) {
	t.Helper()
	checkDemandMatchesRoutes(t, res)
}

func TestCUGRAndFastGRLSameQuality(t *testing.T) {
	// The paper's claim: FastGRL accelerates CUGR "without any quality
	// degradation" — both run the same L-shape DP, so pattern-stage output
	// is identical and final quality nearly so (RRR serialization may
	// differ marginally).
	a := routeVariant(t, "18test5m", CUGR, nil)
	b := routeVariant(t, "18test5m", FastGRL, nil)
	if a.Report.NetsToRipup != b.Report.NetsToRipup {
		t.Fatalf("pattern stages diverged: rip %d vs %d",
			a.Report.NetsToRipup, b.Report.NetsToRipup)
	}
	ra, rb := a.Report.Quality, b.Report.Quality
	if diff := geom.Abs(ra.Shorts - rb.Shorts); diff > geom.Max(3, ra.Shorts/5) {
		t.Fatalf("shorts diverged: %d vs %d", ra.Shorts, rb.Shorts)
	}
	relWL := float64(geom.Abs(ra.Wirelength-rb.Wirelength)) / float64(ra.Wirelength)
	if relWL > 0.02 {
		t.Fatalf("wirelength diverged: %d vs %d", ra.Wirelength, rb.Wirelength)
	}
}

func TestFastGRLFasterThanCUGR(t *testing.T) {
	a := routeVariant(t, "18test5m", CUGR, nil)
	b := routeVariant(t, "18test5m", FastGRL, nil)
	if b.Report.Times.Total >= a.Report.Times.Total {
		t.Fatalf("FastGRL (%v) not faster than CUGR (%v)",
			b.Report.Times.Total, a.Report.Times.Total)
	}
	// Maze side: the task-graph model must beat the batch-barrier model on
	// the same recorded durations.
	if b.Report.MazeTaskGraphTime > b.Report.MazeBatchTime {
		t.Fatalf("task graph (%v) slower than batch barrier (%v)",
			b.Report.MazeTaskGraphTime, b.Report.MazeBatchTime)
	}
}

func TestGPUPatternSpeedupBand(t *testing.T) {
	res := routeVariant(t, "18test5", FastGRL, nil)
	rep := res.Report
	if rep.PatternSeqTime <= rep.Times.Pattern {
		t.Fatalf("GPU pattern (%v) not faster than modeled sequential (%v)",
			rep.Times.Pattern, rep.PatternSeqTime)
	}
	speedup := float64(rep.PatternSeqTime) / float64(rep.Times.Pattern)
	if speedup < 2 || speedup > 200 {
		t.Fatalf("L-kernel speedup %.2fx outside plausible band", speedup)
	}
}

func TestFastGRHUsesHybridKernel(t *testing.T) {
	res := routeVariant(t, "18test5", FastGRH, nil)
	if res.Report.HybridEdges == 0 {
		t.Fatal("FastGRH routed no edges with the hybrid kernel")
	}
	if res.Report.HybridEdges >= res.Report.TotalEdges/2 {
		t.Fatal("selection should keep the hybrid kernel on a small fraction of edges")
	}
	l := routeVariant(t, "18test5", FastGRL, nil)
	if l.Report.HybridEdges != 0 {
		t.Fatal("FastGRL used the hybrid kernel")
	}
}

func TestSelectionOffRoutesEverythingHybrid(t *testing.T) {
	res := routeVariant(t, "18test5m", FastGRH, func(o *Options) { o.SelectionOff = true })
	if res.Report.HybridEdges != res.Report.TotalEdges {
		t.Fatalf("selection off: %d of %d edges hybrid",
			res.Report.HybridEdges, res.Report.TotalEdges)
	}
	sel := routeVariant(t, "18test5m", FastGRH, nil)
	if sel.Report.Times.Pattern >= res.Report.Times.Pattern {
		t.Fatal("selection did not reduce pattern kernel time")
	}
}

func TestRRRReducesShorts(t *testing.T) {
	zero := routeVariant(t, "18test5m", FastGRL, func(o *Options) { o.RRRIters = 0 })
	full := routeVariant(t, "18test5m", FastGRL, nil)
	if full.Report.Quality.Shorts >= zero.Report.Quality.Shorts {
		t.Fatalf("RRR did not reduce shorts: %d -> %d",
			zero.Report.Quality.Shorts, full.Report.Quality.Shorts)
	}
	if len(full.Report.RRR) == 0 || full.Report.NetsToRipup == 0 {
		t.Fatal("RRR iterations not recorded")
	}
	// Iterations shrink: later iterations handle fewer nets.
	iters := full.Report.RRR
	if len(iters) >= 2 && iters[len(iters)-1].Nets > iters[0].Nets {
		t.Fatalf("rip-up set grew across iterations: %+v", iters)
	}
}

func TestRRRSchemeOverride(t *testing.T) {
	s := sched.PinsDesc
	res := routeVariant(t, "18test5m", FastGRL, func(o *Options) { o.RRRSchemeOverride = &s })
	if res.Report.Quality.Wirelength == 0 {
		t.Fatal("override run failed")
	}
}

func TestDeterministicReports(t *testing.T) {
	for _, v := range []Variant{CUGR, FastGRL, FastGRH} {
		a := routeVariant(t, "18test5m", v, nil)
		b := routeVariant(t, "18test5m", v, nil)
		ra, rb := a.Report, b.Report
		// Wall-clock fields differ; everything modeled must be identical.
		if ra.Quality != rb.Quality || ra.Times.Pattern != rb.Times.Pattern ||
			ra.Times.Maze != rb.Times.Maze || ra.NetsToRipup != rb.NetsToRipup ||
			ra.PatternSeqOps != rb.PatternSeqOps {
			t.Fatalf("%v: nondeterministic report:\n%+v\nvs\n%+v", v, ra, rb)
		}
	}
}

func TestParallelExecutionMatchesSequential(t *testing.T) {
	// Task-graph execution with many workers must produce the same result
	// as with one worker: concurrent tasks are conflict-free by construction.
	seq := routeVariant(t, "18test5m", FastGRL, func(o *Options) { o.ExecWorkers = 1 })
	par := routeVariant(t, "18test5m", FastGRL, func(o *Options) { o.ExecWorkers = 8 })
	if seq.Report.Quality != par.Report.Quality {
		t.Fatalf("parallel execution changed quality: %+v vs %+v",
			seq.Report.Quality, par.Report.Quality)
	}
}

func TestVariantString(t *testing.T) {
	if CUGR.String() != "CUGR" || FastGRL.String() != "FastGRL" || FastGRH.String() != "FastGRH" {
		t.Fatal("Variant.String wrong")
	}
}

func TestRouteRejectsInvalidInput(t *testing.T) {
	d := design.MustGenerate("18test5m", testScale)
	opt := DefaultOptions(CUGR)
	opt.RRRIters = -1
	if _, err := Route(d, opt); err == nil {
		t.Fatal("negative iterations accepted")
	}
	bad := *d
	bad.LayerCapacity = nil
	if _, err := Route(&bad, DefaultOptions(CUGR)); err == nil {
		t.Fatal("invalid design accepted")
	}
}

// TestSharedParsers pins the parsing the fastgr CLI and the fastgrd job
// spec share.
func TestSharedParsers(t *testing.T) {
	for _, c := range []struct {
		name string
		want Variant
	}{{"cugr", CUGR}, {"FastGRL", FastGRL}, {"l", FastGRL}, {"fastgrh", FastGRH}, {"H", FastGRH}} {
		if got, err := ParseVariant(c.name); err != nil || got != c.want {
			t.Errorf("ParseVariant(%q) = %v, %v", c.name, got, err)
		}
	}
	if _, err := ParseVariant("maze"); err == nil {
		t.Error("unknown router accepted")
	}
	for _, c := range []struct {
		full  int
		scale float64
		want  int
	}{{100, 1, 100}, {100, 0.02, 14}, {500, 0.02, 71}, {100, 0.0001, 2}} {
		if got := ScaledThreshold(c.full, c.scale); got != c.want {
			t.Errorf("ScaledThreshold(%d, %v) = %d, want %d", c.full, c.scale, got, c.want)
		}
	}
}

// TestRouteRejectsBadOptions: an option no stage can run with is refused
// before planning, with an error naming the field — not discovered deep in
// rip-up (a negative MazeMargin) or silently folded into a report (a
// negative MazeNsPerExpansion).
func TestRouteRejectsBadOptions(t *testing.T) {
	d := design.MustGenerate("18test5m", testScale)
	for _, tc := range []struct {
		field string
		set   func(*Options)
	}{
		{"RRRIters", func(o *Options) { o.RRRIters = -1 }},
		{"Workers", func(o *Options) { o.Workers = -1 }},
		{"ExecWorkers", func(o *Options) { o.ExecWorkers = -2 }},
		{"MazeMargin", func(o *Options) { o.MazeMargin = -3 }},
		{"MazeBudget", func(o *Options) { o.MazeBudget = -1 }},
		{"MazeNsPerExpansion", func(o *Options) { o.MazeNsPerExpansion = -45 }},
		{"MazeNsPerExpansion", func(o *Options) { o.MazeNsPerExpansion = math.NaN() }},
		{"HistoryBump", func(o *Options) { o.HistoryBump = -0.5 }},
		{"Shards", func(o *Options) { o.Shards = -1 }},
		{"Shards", func(o *Options) { o.Shards = MaxShards + 1 }},
	} {
		opt := DefaultOptions(FastGRL)
		tc.set(&opt)
		res, err := Route(d, opt)
		if err == nil || res != nil {
			t.Errorf("%s: bad value accepted", tc.field)
			continue
		}
		if !strings.Contains(err.Error(), "Options."+tc.field+" ") {
			t.Errorf("%s: error %q does not name the field", tc.field, err)
		}
	}
	// The edges of every range stay legal.
	opt := DefaultOptions(FastGRL)
	opt.T1, opt.T2 = 4, 40
	opt.RRRIters, opt.MazeMargin, opt.MazeBudget, opt.HistoryBump = 0, 0, 0, 0
	opt.MazeNsPerExpansion, opt.ExecWorkers = 0, 0
	if _, err := Route(d, opt); err != nil {
		t.Fatalf("zero-valued options rejected: %v", err)
	}
}

func TestNineLayerDesign(t *testing.T) {
	res := routeVariant(t, "18test5", FastGRH, nil)
	if res.Grid.L != 9 {
		t.Fatalf("layers = %d", res.Grid.L)
	}
	for _, n := range res.Design.Nets[:50] {
		if err := res.Routes[n.ID].Validate(res.Grid, netTerminals(n)); err != nil {
			t.Fatalf("net %s: %v", n.Name, err)
		}
	}
}

func TestHistoryRRR(t *testing.T) {
	base := routeVariant(t, "18test5m", FastGRL, nil)
	hist := routeVariant(t, "18test5m", FastGRL, func(o *Options) {
		o.HistoryRRR = true
	})
	// Negotiation must leave a consistent result; quality commonly improves
	// on chronically contested designs but is not guaranteed to.
	if hist.Report.Quality.Wirelength == 0 {
		t.Fatal("history run produced nothing")
	}
	if !hist.Grid.HistoryEnabled() {
		t.Fatal("history not enabled on the grid")
	}
	if base.Grid.HistoryEnabled() {
		t.Fatal("history leaked into the default run")
	}
	// Deterministic under history too.
	hist2 := routeVariant(t, "18test5m", FastGRL, func(o *Options) {
		o.HistoryRRR = true
	})
	if hist.Report.Quality != hist2.Report.Quality {
		t.Fatal("history RRR nondeterministic")
	}
}

// TestRRRStopsAtFixedPoint: without history, an iteration that leaves
// every net on its edge list leaves the grid as it found it, and the next
// one would repeat it exactly. Asked for six iterations, the CUGR runs on
// 18test5m reach such a fixed point on both plans: they stop there, so no
// two consecutive iterations they record are identical. Every rip-up task
// failing is a fixed point at once.
func TestRRRStopsAtFixedPoint(t *testing.T) {
	for _, shards := range []int{0, 2} {
		res := routeVariant(t, "18test5m", CUGR, func(o *Options) {
			o.Shards = shards
			o.RRRIters = 6
		})
		it := res.Report.RRR
		if len(it) == 6 {
			t.Errorf("shards=%d: all 6 iterations ran; the run never reached its fixed point", shards)
		}
		for i := 1; i < len(it); i++ {
			if it[i] == it[i-1] {
				t.Errorf("shards=%d: rrr[%d] repeats rrr[%d]: %+v", shards, i, i-1, it[i])
			}
		}
		failing := routeVariant(t, "18test5m", CUGR, func(o *Options) {
			o.Shards = shards
			o.Fault = &fault.Options{Seed: 1, Probs: map[string]float64{fault.SiteTask: 1}}
		})
		if n := len(failing.Report.RRR); n != 1 {
			t.Errorf("shards=%d: %d iterations ran with every rip-up task failing, want 1", shards, n)
		}
	}
}
