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
// bound — must leave every entry as it is. The one-leaf entries were
// recorded before the congestion-aware maze bound landed, and it left them
// unchanged. The cut entries were re-recorded once when boundary nets
// stopped being split and stitched and began to route whole after the
// leaves; on crossall, where every net crosses a cut, each now equals its
// one-leaf entry.
var parentGeometry = map[string]string{
	"18test5m/CUGR/one-leaf":            "2244ca226da5d115",
	"18test5m/FastGRL/one-leaf":         "f0cc2bfd4413933e",
	"18test5m/FastGRH/one-leaf":         "a3ef61994cd3a07a",
	"18test5m/CUGR/cut":                 "4074001a6e0932ec",
	"18test5m/FastGRL/cut":              "4074001a6e0932ec",
	"18test5m/FastGRH/cut":              "365e5fd6afd550a1",
	"18test5m/CUGR/one-leaf+history":    "686c4898cd26e74c",
	"18test5m/FastGRL/one-leaf+history": "c564296d45026b57",
	"18test5m/FastGRH/one-leaf+history": "456759517844c787",
	"18test5m/CUGR/cut+history":         "4074001a6e0932ec",
	"18test5m/FastGRL/cut+history":      "4074001a6e0932ec",
	"18test5m/FastGRH/cut+history":      "365e5fd6afd550a1",
	"crossall/CUGR/one-leaf":            "ac4ee4b978deaa9c",
	"crossall/FastGRL/one-leaf":         "ac4ee4b978deaa9c",
	"crossall/FastGRH/one-leaf":         "acf909d30c37ad75",
	"crossall/CUGR/cut":                 "ac4ee4b978deaa9c",
	"crossall/FastGRL/cut":              "ac4ee4b978deaa9c",
	"crossall/FastGRH/cut":              "acf909d30c37ad75",
	// These pin the cut plan across many history iterations.
	"18test5m/CUGR/cut+history+rrr6":    "4074001a6e0932ec",
	"18test5m/FastGRL/cut+history+rrr6": "4074001a6e0932ec",
	"18test5m/FastGRH/cut+history+rrr6": "785cf991a0cd88e7",
}

// reportPrints pin each class's Report. A change that moves work counts
// or modeled times re-records them and says why: the congestion-aware
// maze bound moved the expansion counts and modeled maze times, routing
// boundary nets whole moved every cut entry, and removing the Report's
// always-zero skipped-net counts (nothing is skipped since a contained
// failure holds back no task) re-hashed every entry.
var reportPrints = map[string]string{
	"18test5m/CUGR/one-leaf":            "7ff239fa872a5d5f",
	"18test5m/FastGRL/one-leaf":         "afe49c6492f7b729",
	"18test5m/FastGRH/one-leaf":         "17e2f96760f98a41",
	"18test5m/CUGR/cut":                 "f94e1dc62c820f71",
	"18test5m/FastGRL/cut":              "31df6925a1a8a0ef",
	"18test5m/FastGRH/cut":              "9661d2a658267a18",
	"18test5m/CUGR/one-leaf+history":    "03ac1d7c51c224d0",
	"18test5m/FastGRL/one-leaf+history": "1566c4d157feaa6f",
	"18test5m/FastGRH/one-leaf+history": "44f88d4559d35933",
	"18test5m/CUGR/cut+history":         "71d42300a21db7f4",
	"18test5m/FastGRL/cut+history":      "cb8f6f259c685873",
	"18test5m/FastGRH/cut+history":      "f30ffbd0c233b843",
	"crossall/CUGR/one-leaf":            "b43bacbc893f2382",
	"crossall/FastGRL/one-leaf":         "fe3a9b8929b5be34",
	"crossall/FastGRH/one-leaf":         "3f6eafedb72749d9",
	"crossall/CUGR/cut":                 "25d6ad83518112c9",
	"crossall/FastGRL/cut":              "18fe57a0b84fa3d9",
	"crossall/FastGRH/cut":              "bb515a282e8a9e55",
	// These pin the cut plan across many history iterations.
	"18test5m/CUGR/cut+history+rrr6":    "3478cb55d1cbc942",
	"18test5m/FastGRL/cut+history+rrr6": "779472e626fed047",
	"18test5m/FastGRH/cut+history+rrr6": "1abc53acc32fc8e0",
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
// ExecWorkers {1,2,8}. The crafted all-boundary design routes every net
// as a boundary net.
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

// TestCrossAllCutMatchesOneLeaf pins the cut plan's shape: when every net
// crosses a cut, the leaves route nothing and the boundary nets route
// whole in the one-leaf plan's order and batches, so the cut plan's
// geometry print must equal the one-leaf plan's for every variant and
// worker count.
func TestCrossAllCutMatchesOneLeaf(t *testing.T) {
	d := core.CrossDesign()
	for _, v := range []core.Variant{core.CUGR, core.FastGRL, core.FastGRH} {
		for _, w := range []int{1, 2, 8} {
			var prints [2]string
			for i, shards := range []int{0, 2} {
				opt := core.DefaultOptions(v)
				opt.T1, opt.T2 = 4, 40
				opt.Shards = shards
				opt.ExecWorkers = w
				res, err := core.Route(d, opt)
				if err != nil {
					t.Fatalf("%v shards=%d workers=%d: %v", v, shards, w, err)
				}
				prints[i] = geometryPrint(t, res)
			}
			if prints[0] != prints[1] {
				t.Errorf("%v workers=%d: cut-plan geometry print %s, one-leaf %s", v, w, prints[1], prints[0])
			}
		}
	}
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
						// Last: the demand check rips every route up.
						defer checkSound(t, res)
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

// checkSound checks a run with checkers independent of the router: the
// guides cover every route, and committed demand is the demand of the
// routes. It rips every route of res up.
func checkSound(t *testing.T, res *core.Result) {
	t.Helper()
	if err := guide.Covers(res, guide.FromResult(res)); err != nil {
		t.Fatal(err)
	}
	core.CheckDemandMatchesRoutes(t, res)
}

// checkPlanAccounting pins what each plan reports about itself: the
// one-leaf plan leaks no shard accounting, a cut plan echoes K, has real
// leaves and boundary nets (every net on the crafted design), and
// reconciles nothing.
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
		t.Fatal("no boundary nets; the cut plan exercises no boundary pass")
	}
	if r.ReconcileTime != 0 {
		t.Fatalf("cut plan reports ReconcileTime %v; nothing is reconciled", r.ReconcileTime)
	}
}

// TestExecWorkersDeterminismWithTracing extends the contract to the flight
// recorder: with the tracer and metrics registry attached, every
// paper-facing output must stay byte-for-byte identical to an
// observability-free run, for both plans and at every worker count —
// tracing is passive. Every pattern batch, a leaf's or a boundary one,
// records its batch span and kernel metrics.
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
	if s.Counters[obs.MMazeSearches.Name()] == 0 {
		t.Errorf("%v workers=%d: no maze searches recorded", v, w)
	}
	if s.Histograms[obs.MBatchSize.Name()].Count == 0 {
		t.Errorf("%v workers=%d: no batch sizes recorded", v, w)
	}
	if o.Tracer.Dropped() > 0 {
		t.Fatalf("%v workers=%d: tracer dropped %d spans", v, w, o.Tracer.Dropped())
	}
	batches := res.Report.PatternBatches
	if opt.Variant != core.CUGR {
		if got := s.Histograms[obs.MKernelNs.Name()].Count; got != int64(batches) {
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
