package core_test

// External test package: the guide serializer imports core, so comparing
// guide bytes from inside package core would be an import cycle.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
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

// fingerprint hashes a run's output: its guide bytes and its deterministic
// Report — quality, score, every modeled time and count, the RRR
// trajectory.
func fingerprint(t *testing.T, res *core.Result) string {
	h := sha256.New()
	h.Write(guideBytes(t, res))
	fmt.Fprintf(h, "%+v", deterministic(res.Report))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// parentFingerprints were recorded at the commit before the monolithic and
// sharded pipelines became one stage driver (one-leaf plan = Shards 0, cut
// plan = Shards >= 1), so output bit-identity to both old drivers is a
// test. A change that means to move output re-records them and says why:
// the cut-plan entries were re-recorded when leaf views gained prefix runs
// summed from the leaf's origin.
var parentFingerprints = map[string]string{
	"18test5m/CUGR/one-leaf":            "b314338734d0bd3f",
	"18test5m/FastGRL/one-leaf":         "1bd9c1b5cd3324c7",
	"18test5m/FastGRH/one-leaf":         "fa68b4a30aebccdd",
	"18test5m/CUGR/cut":                 "3c21a9a2e3a170d5",
	"18test5m/FastGRL/cut":              "c739338232d95f44",
	"18test5m/FastGRH/cut":              "cfe42e7a072fd10e",
	"18test5m/CUGR/one-leaf+history":    "6735893e82b260dc",
	"18test5m/FastGRL/one-leaf+history": "1ca78852069c3174",
	"18test5m/FastGRH/one-leaf+history": "0698c4c149998179",
	"18test5m/CUGR/cut+history":         "8fe8c5b86ce52724",
	"18test5m/FastGRL/cut+history":      "9795fa6ecf090c17",
	"18test5m/FastGRH/cut+history":      "a0d7ca042838f941",
	"crossall/CUGR/one-leaf":            "6bb9bcc0c597233d",
	"crossall/FastGRL/one-leaf":         "cc1ae2bbbf5e06b5",
	"crossall/FastGRH/one-leaf":         "3631b2f46d9fd458",
	"crossall/CUGR/cut":                 "6874b519a0c2dacb",
	"crossall/FastGRL/cut":              "226358907496119e",
	"crossall/FastGRH/cut":              "896d03377095e8fd",
	// These pin the cut plan across many history iterations.
	"18test5m/CUGR/cut+history+rrr6":    "8cc808c445e7b5a9",
	"18test5m/FastGRL/cut+history+rrr6": "7a17513564edba54",
	"18test5m/FastGRH/cut+history+rrr6": "31086e331326c76c",
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
// pins each class's first run to parentFingerprints.
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
							if got := fingerprint(t, res); got != parentFingerprints[name] {
								t.Errorf("fingerprint %s, recorded %s: output moved from the parent", got, parentFingerprints[name])
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
// tracing is passive. One worker runs a cut plan's single slot on the
// coordinator, where it records the batch-level spans too.
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
}
