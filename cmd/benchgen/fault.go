package main

import (
	"fmt"
	"sort"
	"time"

	"fastgr/internal/design"
	"fastgr/internal/fault"
	"fastgr/internal/geom"
	"fastgr/internal/gpu"
	"fastgr/internal/grid"
	"fastgr/internal/maze"
	"fastgr/internal/pattern"
	"fastgr/internal/patterngpu"
	"fastgr/internal/route"
	"fastgr/internal/stt"
)

// maxFaultOverheadPct is the containment tax budget: arming the fault
// layer with injection disabled (a nil injector, a maze budget too high
// to trip) may cost at most this much over the unarmed paths. tier1.sh
// runs `benchgen -fault` and fails the build past this line on either
// the pattern or the maze side.
const maxFaultOverheadPct = 2.0

// pairedOverheadPct times base and test in adjacent single-sample pairs
// (ABBA order, so neither side systematically runs first) and reports
// two estimates of test's overhead over base — the median per-pair
// ratio and the ratio of the two floors (each side's minimum over
// hundreds of samples) — plus the lower of the two, which is what the
// gate compares against the budget.
//
// The gate hunts a sub-1% intrinsic cost on a shared machine whose
// noise is an order of magnitude larger, and each estimator is inflated
// by a different noise mechanism: the floor ratio by one side never
// catching a clean scheduling window, the pair median by periodic
// disturbances (GC pacing, frequency steps) resonating with the pair
// cadence and shifting every ratio the same way — both were observed
// here, never together. A real regression raises the floor AND every
// pair, so gating on the minimum of the two keeps the gate's teeth
// while making a false failure need two independent noise mechanisms to
// fire in one run.
func pairedOverheadPct(pairs, iters int, base, test func()) (baseNs, testNs int64, medianPct, floorPct, pct float64) {
	timeNs := func(fn func()) int64 {
		start := time.Now()
		for n := 0; n < iters; n++ {
			fn()
		}
		return time.Since(start).Nanoseconds() / int64(iters)
	}
	base() // warm up caches and the allocator once, untimed
	test()
	baseNs, testNs = 1<<63-1, 1<<63-1
	ratios := make([]float64, 0, pairs)
	for r := 0; r < pairs; r++ {
		var b, t int64
		if r%2 == 0 {
			b = timeNs(base)
			t = timeNs(test)
		} else {
			t = timeNs(test)
			b = timeNs(base)
		}
		if b < baseNs {
			baseNs = b
		}
		if t < testNs {
			testNs = t
		}
		ratios = append(ratios, float64(t)/float64(b))
	}
	sort.Float64s(ratios)
	med := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		med = (med + ratios[len(ratios)/2-1]) / 2
	}
	medianPct = 100 * (med - 1)
	floorPct = 100 * (float64(testNs)/float64(baseNs) - 1)
	pct = medianPct
	if floorPct < pct {
		pct = floorPct
	}
	return baseNs, testNs, medianPct, floorPct, pct
}

type faultReport struct {
	Design  string  `json:"design"`
	Scale   float64 `json:"scale"`
	Workers int     `json:"workers"`

	// Pattern side: RouteBatch unarmed vs. armed with a zero-probability
	// containment layer (per-net Run wrappers, kernel RunOnce, error
	// collection — everything but actual injections). The gated overhead
	// is the lower of the median-pair and floor estimates (see
	// pairedOverheadPct for why).
	PatternPlainNsPerOp  int64   `json:"pattern_plain_ns_per_op"`
	PatternArmedNsPerOp  int64   `json:"pattern_armed_ns_per_op"`
	PatternMedianPairPct float64 `json:"pattern_median_pair_pct"`
	PatternFloorPct      float64 `json:"pattern_floor_pct"`
	PatternOverheadPct   float64 `json:"pattern_overhead_pct"`

	// Maze side: the A*+warm-cache search with no budget vs. a budget so
	// high it never trips (the per-expansion limit check armed).
	MazeUnbudgetedNsPerOp int64   `json:"maze_unbudgeted_ns_per_op"`
	MazeBudgetedNsPerOp   int64   `json:"maze_budgeted_ns_per_op"`
	MazeMedianPairPct     float64 `json:"maze_median_pair_pct"`
	MazeFloorPct          float64 `json:"maze_floor_pct"`
	MazeOverheadPct       float64 `json:"maze_overhead_pct"`

	MaxOverheadPct float64 `json:"max_overhead_pct"`

	// Meta fingerprints the measurement host for -regress (stamp.go).
	Meta BenchMeta `json:"meta"`
}

// runFault measures the disabled-injection cost of the fault containment
// layer on the pattern-batch and maze workloads and writes the record as
// JSON. It returns an error — failing the build — when either side
// exceeds the overhead budget.
func runFault(out string) error {
	rep := faultReport{
		Design:         "18test5m",
		Scale:          hostparScale,
		Workers:        4,
		MaxOverheadPct: maxFaultOverheadPct,
	}
	d := design.MustGenerate("18test5m", hostparScale)

	// Pattern side: the runObs fixture, unarmed vs. zero-probability armed.
	{
		const pairs, iters = 600, 1
		g := grid.NewFromDesign(d)
		trees := make([]*stt.Tree, 0, 200)
		for _, n := range d.Nets[:200] {
			trees = append(trees, stt.Build(n))
		}
		newRouter := func() *patterngpu.Router {
			r := patterngpu.New(gpu.RTX3090(), pattern.Config{Mode: pattern.LShape})
			r.Workers = rep.Workers
			return r
		}
		plain := newRouter()
		armed := newRouter()
		armed.CPU = gpu.XeonGold6226R()
		armed.Fault = fault.New(fault.Options{Seed: 1}, nil) // nil injector: never fires
		rep.PatternPlainNsPerOp, rep.PatternArmedNsPerOp, rep.PatternMedianPairPct, rep.PatternFloorPct, rep.PatternOverheadPct = pairedOverheadPct(pairs, iters,
			func() { plain.RouteBatch(g, trees) },
			func() { armed.RouteBatch(g, trees) },
		)
	}

	// Maze side: the mazebench net set on a warm cost field, unlimited
	// budget vs. an untrippable one.
	{
		const pairs, iters = 400, 2
		g := grid.NewFromDesign(d)
		g.WarmCostCache()
		nets := d.Nets[:50]
		pins := make([][]geom.Point3, len(nets))
		wins := make([]geom.Rect, len(nets))
		for i, n := range nets {
			pins[i] = route.PinTerminals(stt.Build(n))
			wins[i] = n.BBox().Inflate(4).ClampTo(g.W, g.H)
		}
		round := func(s *maze.Search) error {
			for j := range nets {
				if _, _, err := s.RouteNet(g, nets[j].ID, pins[j], wins[j]); err != nil {
					return err
				}
			}
			return nil
		}
		unbudgeted, budgeted := maze.NewSearch(), maze.NewSearch()
		budgeted.SetBudget(1 << 62)
		var roundErr error
		run := func(s *maze.Search) func() {
			return func() {
				if err := round(s); err != nil && roundErr == nil {
					roundErr = err
				}
			}
		}
		rep.MazeUnbudgetedNsPerOp, rep.MazeBudgetedNsPerOp, rep.MazeMedianPairPct, rep.MazeFloorPct, rep.MazeOverheadPct = pairedOverheadPct(pairs, iters,
			run(unbudgeted), run(budgeted))
		if roundErr != nil {
			return fmt.Errorf("fault bench maze round: %w", roundErr)
		}
	}

	rep.Meta = currentBenchMeta()
	var gate error
	switch {
	case rep.PatternOverheadPct > maxFaultOverheadPct:
		gate = fmt.Errorf("disabled-injection pattern overhead %.2f%% exceeds the %.1f%% budget (plain %d ns/op, armed %d ns/op)",
			rep.PatternOverheadPct, maxFaultOverheadPct, rep.PatternPlainNsPerOp, rep.PatternArmedNsPerOp)
	case rep.MazeOverheadPct > maxFaultOverheadPct:
		gate = fmt.Errorf("budget-check maze overhead %.2f%% exceeds the %.1f%% budget (unbudgeted %d ns/op, budgeted %d ns/op)",
			rep.MazeOverheadPct, maxFaultOverheadPct, rep.MazeUnbudgetedNsPerOp, rep.MazeBudgetedNsPerOp)
	}
	return writeRecord(out, "fault containment overhead record", rep, gate)
}
