package core_test

// External test package: the guide serializer imports core, so comparing
// guide bytes from inside package core would be an import cycle.

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/guide"
	"fastgr/internal/obs"
)

func guideBytes(t *testing.T, res *core.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := guide.Write(&buf, guide.FromResult(res)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// deterministic is the part of a Report every run of one output class
// must reproduce: everything but the host measurements (wall clocks, heap
// high-water) and the shard-count echo.
func deterministic(r core.Report) core.Report {
	r.Times.PlanWall, r.Times.PatternWall, r.Times.MazeWall, r.Times.WallTotal = 0, 0, 0, 0
	r.PeakHeapBytes = 0
	r.Shards = 0
	return r
}

// geometryPrint hashes a run's geometry: its guide bytes and every net's
// sealed edge list.
func geometryPrint(t *testing.T, res *core.Result) string {
	h := sha256.New()
	h.Write(guideBytes(t, res))
	for _, n := range res.Design.Nets {
		if rt := res.Routes[n.ID]; rt != nil {
			fmt.Fprintf(h, "%d:%v\n", n.ID, rt.Edges())
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// reportPrint hashes a run's deterministic Report: quality, score, every
// modeled time and count, the RRR trajectory.
func reportPrint(res *core.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v", deterministic(res.Report))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// parentGeometry pins each class's routed geometry. A change that only
// schedules or prunes work — a worker count, a shard count, a tighter A*
// bound — must leave every entry as it is; these were recorded before the
// congestion-aware maze bound landed, and it left them unchanged.
var parentGeometry = map[string]string{
	"18test5m/CUGR/one-leaf":            "2244ca226da5d115",
	"18test5m/FastGRL/one-leaf":         "f0cc2bfd4413933e",
	"18test5m/FastGRH/one-leaf":         "a3ef61994cd3a07a",
	"18test5m/CUGR/cut":                 "e1d46fde82df1a04",
	"18test5m/FastGRL/cut":              "e1d46fde82df1a04",
	"18test5m/FastGRH/cut":              "8a6c60cd43925733",
	"18test5m/CUGR/one-leaf+history":    "686c4898cd26e74c",
	"18test5m/FastGRL/one-leaf+history": "c564296d45026b57",
	"18test5m/FastGRH/one-leaf+history": "456759517844c787",
	"18test5m/CUGR/cut+history":         "e1d46fde82df1a04",
	"18test5m/FastGRL/cut+history":      "e1d46fde82df1a04",
	"18test5m/FastGRH/cut+history":      "72c1b2dd97ede5e8",
	"crossall/CUGR/one-leaf":            "ac4ee4b978deaa9c",
	"crossall/FastGRL/one-leaf":         "ac4ee4b978deaa9c",
	"crossall/FastGRH/one-leaf":         "acf909d30c37ad75",
	"crossall/CUGR/cut":                 "33639d2b2b8ec1c3",
	"crossall/FastGRL/cut":              "33639d2b2b8ec1c3",
	"crossall/FastGRH/cut":              "7cd1b06789ee61c4",
	// These pin the cut plan across many history iterations.
	"18test5m/CUGR/cut+history+rrr6":    "aa5eee0a0a526685",
	"18test5m/FastGRL/cut+history+rrr6": "aa5eee0a0a526685",
	"18test5m/FastGRH/cut+history+rrr6": "4dd704d6f00d35ea",
}

// reportPrints pin each class's Report. A change that moves work counts
// or modeled times re-records them and says why: the congestion-aware
// maze bound moved the expansion counts and modeled maze times.
var reportPrints = map[string]string{
	"18test5m/CUGR/one-leaf":            "2d1338f691809d71",
	"18test5m/FastGRL/one-leaf":         "85a40dcc53ad0113",
	"18test5m/FastGRH/one-leaf":         "1667ffbbfa4312e0",
	"18test5m/CUGR/cut":                 "8bd6c36286fab4f8",
	"18test5m/FastGRL/cut":              "8cee909fcb772756",
	"18test5m/FastGRH/cut":              "a30f4176bbb5fcfa",
	"18test5m/CUGR/one-leaf+history":    "2457a6bc6faac7a8",
	"18test5m/FastGRL/one-leaf+history": "26033940f6009a5f",
	"18test5m/FastGRH/one-leaf+history": "2d61919e44796d7d",
	"18test5m/CUGR/cut+history":         "a9284c7667ea428b",
	"18test5m/FastGRL/cut+history":      "7aa803e5fb50699c",
	"18test5m/FastGRH/cut+history":      "3996788cbea47470",
	"crossall/CUGR/one-leaf":            "87b18203b3c49505",
	"crossall/FastGRL/one-leaf":         "8cac6f02fabe4e1f",
	"crossall/FastGRH/one-leaf":         "1bf4f620c1a9dba0",
	"crossall/CUGR/cut":                 "2f72716c3c9bcb14",
	"crossall/FastGRL/cut":              "a655de7c7bdef6ad",
	"crossall/FastGRH/cut":              "7ffbe0a1c0f22b02",
	// These pin the cut plan across many history iterations.
	"18test5m/CUGR/cut+history+rrr6":    "322333a32776db8c",
	"18test5m/FastGRL/cut+history+rrr6": "acd58dd5a0d8ae2c",
	"18test5m/FastGRH/cut+history+rrr6": "78ba07d21f44538e",
}

// detClass is one row of the determinism table: (design, variant, plan,
// history). Every run of a class — any shard count of its plan, any
// ExecWorkers — must emit byte-identical guides and per-net geometry and
// the same deterministic Report. Shard count and worker count schedule
// work, they never steer it.
type detClass struct {
	d       *design.Design
	plan    string
	history bool
	shards  []int
	workers []int
	// iters overrides Options.RRRIters when non-zero; the class name then
	// ends "+rrr<iters>" and every run must carry out at least four
	// iterations.
	iters int
}

// TestExecWorkersDeterminism is the one-leaf plan's rows (Shards = 0):
// ExecWorkers is functional parallelism only, so every variant's outputs
// must be identical at 1, 2 and 8 workers and match the parent.
func TestExecWorkersDeterminism(t *testing.T) {
	checkDeterminism(t, []detClass{
		{design.MustGenerate("18test5m", 0.005), "one-leaf", false, []int{0}, []int{1, 2, 8}, 0},
		{core.CrossDesign(), "one-leaf", false, []int{0}, []int{1, 2, 8}, 0},
	})
}

// TestShardDeterminism is the cut plan's rows: Shards {1,2,4} x
// ExecWorkers {1,2,8}. The crafted all-boundary design forces every net
// through split/stitch/reconcile.
func TestShardDeterminism(t *testing.T) {
	checkDeterminism(t, []detClass{
		{design.MustGenerate("18test5m", 0.005), "cut", false, []int{1, 2, 4}, []int{1, 2, 8}, 0},
		{core.CrossDesign(), "cut", false, []int{1, 2, 4}, []int{1, 2, 8}, 0},
	})
}

// TestExecWorkersDeterminismWithHistory covers the negotiated-congestion
// rows: history bumps depend on overflow state after each iteration,
// which must itself be worker-count independent on both plans. The
// long cut-plan row pins state carried between iterations: a boundary
// pass that reused a cost view built in an earlier iteration would miss
// the leaf views' write-through and the history bumps, and move output.
func TestExecWorkersDeterminismWithHistory(t *testing.T) {
	small := design.MustGenerate("18test5m", 0.005)
	checkDeterminism(t, []detClass{
		{small, "one-leaf", true, []int{0}, []int{1, 8}, 0},
		{small, "cut", true, []int{2}, []int{1, 8}, 0},
		{small, "cut", true, []int{2, 4}, []int{1, 2}, 6},
	})
}

// TestShardZeroIsMonolithic pins the dispatch contract: Shards = 0 runs
// the one-leaf plan and reports no shard accounting.
func TestShardZeroIsMonolithic(t *testing.T) {
	d := design.MustGenerate("18test5m", 0.005)
	opt := core.DefaultOptions(core.FastGRH)
	opt.T1, opt.T2 = 4, 40
	res, err := core.Route(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanAccounting(t, d, 0, res.Report)
}

// checkDeterminism runs every class of the table for every variant and
// pins each class's first run to parentGeometry and reportPrints.
func checkDeterminism(t *testing.T, classes []detClass) {
	for _, c := range classes {
		for _, v := range []core.Variant{core.CUGR, core.FastGRL, core.FastGRH} {
			name := fmt.Sprintf("%s/%v/%s", c.d.Name, v, c.plan)
			if c.history {
				name += "+history"
			}
			if c.iters > 0 {
				name += fmt.Sprintf("+rrr%d", c.iters)
			}
			t.Run(name, func(t *testing.T) {
				var base *core.Result
				var baseGuides []byte
				for _, shards := range c.shards {
					for _, w := range c.workers {
						opt := core.DefaultOptions(v)
						opt.T1, opt.T2 = 4, 40
						opt.Shards = shards
						opt.ExecWorkers = w
						opt.HistoryRRR = c.history
						if c.iters > 0 {
							opt.RRRIters = c.iters
						}
						res, err := core.Route(c.d, opt)
						if err != nil {
							t.Fatalf("shards=%d workers=%d: %v", shards, w, err)
						}
						if c.iters > 0 && len(res.Report.RRR) < 4 {
							t.Fatalf("only %d rip-up iterations ran; the row pins nothing across iterations", len(res.Report.RRR))
						}
						checkPlanAccounting(t, c.d, shards, res.Report)
						gb := guideBytes(t, res)
						if base == nil {
							base, baseGuides = res, gb
							if c.d.Name != "crossall" && res.Report.NetsToRipup == 0 {
								t.Fatal("no rip-up work; the table exercises nothing")
							}
							if got := geometryPrint(t, res); got != parentGeometry[name] {
								t.Errorf("geometry print %s, recorded %s: routes moved from the parent", got, parentGeometry[name])
							}
							if got := reportPrint(res); got != reportPrints[name] {
								t.Errorf("report print %s, recorded %s: the report moved", got, reportPrints[name])
							}
							continue
						}
						if !bytes.Equal(baseGuides, gb) {
							t.Errorf("guides differ between (shards=%d, workers=%d) and (shards=%d, workers=%d)",
								c.shards[0], c.workers[0], shards, w)
						}
						if a, b := deterministic(base.Report), deterministic(res.Report); !reflect.DeepEqual(a, b) {
							t.Errorf("shards=%d workers=%d: report drifted:\n%+v\nvs\n%+v", shards, w, a, b)
						}
						for _, n := range c.d.Nets {
							ra, rb := base.Routes[n.ID], res.Routes[n.ID]
							if (ra == nil) != (rb == nil) || (ra != nil && !slices.Equal(ra.Edges(), rb.Edges())) {
								t.Fatalf("shards=%d workers=%d: net %s geometry differs", shards, w, n.Name)
							}
						}
					}
				}
			})
		}
	}
}

// checkPlanAccounting pins what each plan reports about itself: the
// one-leaf plan leaks no shard accounting, a cut plan echoes K, has real
// leaves, and splits boundary nets (every net on the crafted design).
func checkPlanAccounting(t *testing.T, d *design.Design, shards int, r core.Report) {
	t.Helper()
	if r.PeakHeapBytes == 0 {
		t.Fatal("PeakHeapBytes never sampled")
	}
	if shards == 0 {
		if r.Shards != 0 || r.ShardLeaves != 0 || r.BoundaryNets != 0 ||
			r.BoundaryReroutes != 0 || r.ReconcileTime != 0 {
			t.Fatalf("one-leaf run leaked shard accounting: %+v", r)
		}
		return
	}
	if r.Shards != shards || r.ShardLeaves < 2 {
		t.Fatalf("shards=%d: reported Shards=%d ShardLeaves=%d", shards, r.Shards, r.ShardLeaves)
	}
	if d.Name == "crossall" && r.BoundaryNets != len(d.Nets) {
		t.Fatalf("%d of %d nets classified boundary, want all", r.BoundaryNets, len(d.Nets))
	}
	if r.BoundaryNets == 0 {
		t.Fatal("no boundary nets; the cut plan exercises no stitching")
	}
}

// TestExecWorkersDeterminismWithTracing extends the contract to the flight
// recorder: with the tracer and metrics registry attached, every
// paper-facing output must stay byte-for-byte identical to an
// observability-free run, for both plans and at every worker count —
// tracing is passive. Every executor slot, fanned out or not, records its
// batch spans and kernel metrics.
func TestExecWorkersDeterminismWithTracing(t *testing.T) {
	d := design.MustGenerate("18test5m", 0.005)
	for _, v := range []core.Variant{core.CUGR, core.FastGRL, core.FastGRH} {
		for _, shards := range []int{0, 2} {
			baseOpt := core.DefaultOptions(v)
			baseOpt.T1, baseOpt.T2 = 4, 40
			baseOpt.Shards = shards
			base, err := core.Route(d, baseOpt)
			if err != nil {
				t.Fatalf("%v shards=%d baseline: %v", v, shards, err)
			}
			for _, w := range []int{1, 2, 8} {
				tracedRunMatches(t, d, baseOpt, base, w)
			}
		}
	}
}

// tracedRunMatches reruns opt at w workers with the flight recorder
// attached and checks the result against the unobserved base run.
func tracedRunMatches(t *testing.T, d *design.Design, opt core.Options, base *core.Result, w int) {
	t.Helper()
	v := fmt.Sprintf("%v shards=%d", opt.Variant, opt.Shards)
	o := &obs.Observer{
		Tracer:  obs.NewTracer(1<<16, w),
		Metrics: obs.NewRegistry(),
	}
	opt.ExecWorkers = w
	opt.Obs = o
	res, err := core.Route(d, opt)
	if err != nil {
		t.Fatalf("%v workers=%d traced: %v", v, w, err)
	}
	if a, b := deterministic(base.Report), deterministic(res.Report); !reflect.DeepEqual(a, b) {
		t.Errorf("%v workers=%d: tracing changed the report:\n%+v\nvs\n%+v", v, w, a, b)
	}
	for _, n := range d.Nets {
		ra, rb := base.Routes[n.ID], res.Routes[n.ID]
		if (ra == nil) != (rb == nil) ||
			(ra != nil && !slices.Equal(ra.Edges(), rb.Edges())) {
			t.Fatalf("%v workers=%d: tracing changed net %s geometry", v, w, n.Name)
		}
	}
	// The recorder must actually have seen the run.
	if o.Tracer.Recorded() == 0 {
		t.Errorf("%v workers=%d: tracer recorded no spans", v, w)
	}
	s := o.Metrics.Snapshot()
	if s.Counters[obs.MMazeSearches] == 0 {
		t.Errorf("%v workers=%d: no maze searches recorded", v, w)
	}
	if s.Histograms[obs.MBatchSize].Count == 0 {
		t.Errorf("%v workers=%d: no batch sizes recorded", v, w)
	}
	if o.Tracer.Dropped() > 0 {
		t.Fatalf("%v workers=%d: tracer dropped %d spans", v, w, o.Tracer.Dropped())
	}
	batches := res.Report.PatternBatches
	if opt.Variant != core.CUGR {
		if got := s.Histograms[obs.MKernelNs].Count; got != int64(batches) {
			t.Errorf("%v workers=%d: %d kernel observations, want one per pattern batch (%d)", v, w, got, batches)
		}
	}
	events := o.Tracer.Events()
	spans := 0
	for _, e := range events {
		if strings.HasPrefix(e.Name, "pattern.batch[") {
			spans++
		}
	}
	if spans != batches {
		t.Errorf("%v workers=%d: %d pattern.batch spans, want one per pattern batch (%d)", v, w, spans, batches)
	}
	checkLaneNesting(t, v, w, events)
}

// checkLaneNesting requires the spans of every lane to nest in LIFO
// order: two spans on one lane are disjoint or one contains the other,
// so no two goroutines ever drew on the same lane at once.
func checkLaneNesting(t *testing.T, v string, w int, events []obs.Event) {
	t.Helper()
	byLane := map[int][]obs.Event{}
	for _, e := range events {
		byLane[e.Lane] = append(byLane[e.Lane], e)
	}
	for lane, es := range byLane {
		// By start, the outer of two equal starts first.
		slices.SortFunc(es, func(a, b obs.Event) int {
			return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(b.Dur, a.Dur))
		})
		var open []obs.Event // the chain of spans enclosing the current one
		for _, e := range es {
			for len(open) > 0 && open[len(open)-1].Start+open[len(open)-1].Dur <= e.Start {
				open = open[:len(open)-1]
			}
			if len(open) > 0 {
				if p := open[len(open)-1]; e.Start+e.Dur > p.Start+p.Dur {
					t.Fatalf("%v workers=%d: lane %d: %s [%v, %v] overlaps %s [%v, %v] without nesting",
						v, w, lane, e.Name, e.Start, e.Start+e.Dur, p.Name, p.Start, p.Start+p.Dur)
				}
			}
			open = append(open, e)
		}
	}
}
