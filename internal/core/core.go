// Package core assembles the paper's global-routing framework (Fig. 5):
// pattern routing planning (Steiner trees + edge shifting + net ordering +
// Algorithm-1 batching), the pattern routing stage (CPU-sequential for the
// CUGR baseline, batched GPU kernels for FastGR), and the rip-up-and-reroute
// iterations (maze routing in Algorithm-1 batch order for the baseline,
// task-graph-scheduled maze routing for FastGR). Both rip-up orders execute
// as task graphs on one executor; the baseline's batch barrier is modeled
// (taskflow.BatchMakespan), not executed, and its routes depend only on
// its batch order.
//
// Three router variants are provided, matching the evaluation:
//
//	CUGR     — sequential L-shape pattern routing + batch-order RRR
//	           (batch-barrier modeled time).
//	FastGRL  — GPU L-shape kernel + task-graph scheduler (runtime-oriented).
//	FastGRH  — GPU hybrid-shape kernel with selection + task-graph scheduler
//	           (quality-oriented).
//
// Reported stage times come from the deterministic models described in
// DESIGN.md (simulated GPU clock, 16-worker makespan, op-count CPU time);
// wall-clock on the host is recorded alongside.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"fastgr/internal/design"
	"fastgr/internal/fault"
	"fastgr/internal/gpu"
	"fastgr/internal/grid"
	"fastgr/internal/maze"
	"fastgr/internal/metrics"
	"fastgr/internal/obs"
	"fastgr/internal/pattern"
	"fastgr/internal/route"
	"fastgr/internal/sched"
	"fastgr/internal/shard"
	"fastgr/internal/stt"
	"fastgr/internal/taskflow"
)

// Variant selects the router configuration.
type Variant int

const (
	CUGR Variant = iota
	FastGRL
	FastGRH
)

func (v Variant) String() string {
	switch v {
	case CUGR:
		return "CUGR"
	case FastGRL:
		return "FastGRL"
	default:
		return "FastGRH"
	}
}

// Options configures one routing run.
type Options struct {
	Variant Variant
	// Scheme orders nets in both stages; the paper settles on ascending
	// bounding-box half perimeter (Section IV-C).
	Scheme sched.Scheme
	// RRRSchemeOverride, when non-nil, replaces Scheme in the rip-up and
	// reroute iterations only — the Table V experiment.
	RRRSchemeOverride *sched.Scheme
	// RRRIters is the number of rip-up-and-reroute iterations (paper: 3).
	RRRIters int
	// T1, T2 are the selection thresholds on two-pin-net HPWL (paper: 100
	// and 500 at full scale; experiments scale them with the design).
	T1, T2 int
	// SelectionOff applies the hybrid kernel to every two-pin net — the
	// Table VI ablation.
	SelectionOff bool
	// NoEdgeShift disables the congestion-aware edge shifting of the
	// planning stage (an ablation of Fig. 5's planning box).
	NoEdgeShift bool
	// PatternModeOverride, when non-nil, replaces the variant's pattern
	// kernel — e.g. pattern.Staircase to exercise the three-bend extension
	// of Section IV-F on the full pipeline.
	PatternModeOverride *pattern.Mode
	// HistoryRRR enables negotiated-congestion history (Archer-style, the
	// paper's reference [22]): chronically overflowed edges accumulate a
	// persistent penalty across rip-up iterations.
	HistoryRRR bool
	// HistoryBump is the per-overflow-unit history increment added after
	// each iteration (only with HistoryRRR).
	HistoryBump float64
	// MazeMargin inflates each net's maze search window (and its conflict
	// footprint) beyond its bounding box.
	MazeMargin int
	// MazeAlgorithm selects the rip-up search strategy. The zero value,
	// maze.AStar, is the only production setting: no CLI flag or job spec
	// field reaches this field. maze.Dijkstra is the unguided oracle that
	// tests and the frozen e2ebench replay switch to. Routed geometry is
	// bit-identical either way (the A* bound is strictly admissible under
	// the default cost parameters) — only expansion counts, and with them
	// the modeled maze times, differ.
	MazeAlgorithm maze.Algorithm
	// Workers is the modeled CPU worker count for parallel-RRR makespans
	// (paper host: 16 cores).
	Workers int
	// ExecWorkers is the number of real goroutines used to execute the
	// pipeline's parallel sections — planning, batch pattern solving, the
	// overflow scan and the rip-up task graph. Functional parallelism only:
	// results and all reported (modeled) times are bit-identical for every
	// worker count; only the wall-clock columns change.
	ExecWorkers int
	// Device is the simulated GPU; CPU models the host.
	Device gpu.Spec
	CPU    gpu.CPUModel
	// MazeNsPerExpansion converts maze search work (settled nodes: 3-D
	// expansions and the A* bound's plane cells) into modeled time;
	// heap-based Dijkstra costs tens of ns per settled node.
	MazeNsPerExpansion float64
	// Obs, when non-nil, attaches the flight recorder (internal/obs):
	// stage/batch/iteration/task spans and the pipeline metrics registry.
	// Observability is passive — routed geometry, modeled times and quality
	// are bit-identical with it on, off, or at any ExecWorkers count; the
	// determinism suite runs with tracing enabled to enforce that.
	Obs *obs.Observer
	// Journal, when non-nil, receives the structured run journal: one
	// "stage" event per stage boundary and one "iter" event per rip-up
	// iteration (see journal.go for the payloads). Passive like Obs, and
	// crash-safe: each event is one fsynced append, so a run killed
	// mid-flight leaves every event before it, at worst plus a torn line.
	Journal *obs.Journal
	// Fault, when non-nil, arms the fault containment layer (internal/fault)
	// around every parallel work unit: panics and injected faults are
	// retried, exhausted units degrade (a failed reroute keeps its pattern
	// route, a failed kernel batch falls back to the CPU path) and the
	// Report's FaultStats records the damage. The run builds the layer
	// itself and returns its per-site accounting (fault.Snapshot — the
	// daemon reports it per job) as Result.FaultSites. nil runs the
	// uncontained fast paths — bit-identical to builds predating the
	// layer. For a fixed (Fault.Seed, Fault.Probs, MazeBudget), results
	// remain bit-identical at every ExecWorkers count.
	Fault *fault.Options
	// MazeBudget caps the expansions one rip-up maze search may spend;
	// a net that exceeds it keeps its pattern route (recorded as a budget
	// fallback). 0 is unlimited. Works with or without Fault.
	MazeBudget int64
	// Shards picks the spatial plan the stages route over (internal/shard).
	// 0, the default, is the one-leaf plan: the whole grid, no cuts, every
	// net routed whole against one full-grid cost field. K >= 1 is the cut
	// plan: the grid is bisected into leaf regions on pin density,
	// intra-leaf nets route against leaf-windowed cost caches (leaf after
	// leaf in the pattern stage, every leaf in one task graph per rip-up
	// iteration), and boundary nets (nets crossing a cut)
	// route whole after the leaves in each stage, over a full-grid view.
	// K steers nothing but that choice, so routed output is bit-identical
	// for every K >= 1 but may differ from K = 0: boundary nets route after
	// the intra-leaf ones, and a leaf cache sums its prefix runs from the
	// leaf's origin, so its segment costs round differently. When every net
	// crosses a cut, the cut plan routes exactly like K = 0. At most
	// MaxShards.
	Shards int
	// HeapGC forces a garbage collection before each peak-heap sample so
	// PeakHeapBytes measures live bytes, not allocator slack. Benchmarks
	// set it; it changes no routed result, only wall-clock.
	HeapGC bool
}

// FaultStats aggregates the containment outcomes of one run. The counts
// come from the deterministic control flow (not from metric reads), so
// they are part of the bit-identical Report contract.
type FaultStats struct {
	// FailedNets counts rip-up tasks whose containment attempts were
	// exhausted; the nets keep their previous committed route.
	FailedNets int
	// KernelFallbacks counts pattern-stage batches degraded to the CPU
	// baseline path.
	KernelFallbacks int
	// BudgetFallbacks counts rip-up searches abandoned over budget
	// (configured or injected); those nets keep their pattern route.
	BudgetFallbacks int
}

// MaxShards bounds Options.Shards. Every count >= 1 runs the same cut
// plan; the bound only keeps a typo from passing for a plan.
const MaxShards = 4096

// validate rejects option values no stage can run with, before any
// routing; the error names the field.
func (o *Options) validate() error {
	for _, c := range []struct {
		field string
		val   any
		ok    bool
	}{
		{"RRRIters", o.RRRIters, o.RRRIters >= 0},
		{"Workers", o.Workers, o.Workers >= 0},
		{"ExecWorkers", o.ExecWorkers, o.ExecWorkers >= 0},
		{"MazeMargin", o.MazeMargin, o.MazeMargin >= 0},
		{"MazeBudget", o.MazeBudget, o.MazeBudget >= 0},
		{"MazeNsPerExpansion", o.MazeNsPerExpansion, o.MazeNsPerExpansion >= 0},
		{"HistoryBump", o.HistoryBump, o.HistoryBump >= 0},
	} {
		if !c.ok {
			return fmt.Errorf("core: Options.%s = %v, want >= 0", c.field, c.val)
		}
	}
	if o.Shards < 0 || o.Shards > MaxShards {
		return fmt.Errorf("core: Options.Shards = %d outside [0, %d]", o.Shards, MaxShards)
	}
	return nil
}

// ParseVariant maps a router name — cugr, fastgrl (or l), fastgrh (or h),
// in any case — to its Variant. The fastgr CLI and the fastgrd job spec
// both parse through it, which keeps daemon guides byte-identical to the
// CLI's.
func ParseVariant(s string) (Variant, error) {
	switch strings.ToLower(s) {
	case "cugr":
		return CUGR, nil
	case "fastgrl", "l":
		return FastGRL, nil
	case "fastgrh", "h":
		return FastGRH, nil
	}
	return 0, fmt.Errorf("unknown router %q (want cugr, fastgrl or fastgrh)", s)
}

// ScaledThreshold scales a full-size selection threshold (the paper's
// T1 = 100, T2 = 500) to a design generated at scale: by sqrt(scale),
// rounded, and at least 2.
func ScaledThreshold(full int, scale float64) int {
	return max(int(float64(full)*math.Sqrt(scale)+0.5), 2)
}

// DefaultOptions returns the paper-faithful configuration for a variant.
func DefaultOptions(v Variant) Options {
	return Options{
		Variant:            v,
		Scheme:             sched.HPWLAsc,
		RRRIters:           3,
		T1:                 100,
		T2:                 500,
		MazeMargin:         4,
		Workers:            16,
		ExecWorkers:        4,
		Device:             gpu.RTX3090(),
		CPU:                gpu.XeonGold6226R(),
		MazeNsPerExpansion: 45,
	}
}

// StageTimes reports stage durations on two deliberately separate clocks:
//
//   - Pattern, Maze and Total are MODELED times — the simulated GPU kernel
//     clock, the P-worker makespan models and the expansion cost model of
//     DESIGN.md. Total is Pattern + Maze only, the two stages the paper's
//     runtime tables compare (the planning stage is identical across
//     variants), and is a pure function of the design and options.
//   - The *Wall fields are HOST wall-clock measurements of this process,
//     and WallTotal = PlanWall + PatternWall + MazeWall covers the whole
//     pipeline including planning. Wall times vary run to run and with
//     ExecWorkers; they must never be compared against, or summed into,
//     the modeled columns.
type StageTimes struct {
	Pattern time.Duration // modeled pattern routing stage
	Maze    time.Duration // modeled rip-up-and-reroute iterations
	Total   time.Duration // modeled Pattern + Maze (excludes planning)

	PlanWall    time.Duration
	PatternWall time.Duration
	MazeWall    time.Duration
	WallTotal   time.Duration // wall Plan + Pattern + Maze
}

// IterStats records one rip-up-and-reroute iteration.
type IterStats struct {
	Nets          int           // nets ripped up in this iteration
	Expansions    int64         // total maze expansions (3-D nodes settled)
	TaskGraphTime time.Duration // modeled DAG-schedule makespan
	BatchTime     time.Duration // modeled batch-barrier makespan
	ConflictEdges int
	// Quality and Score snapshot the eq.-15 metrics after this iteration
	// committed — the per-iteration trajectory of how rip-up trades
	// wirelength and vias for shorts. Deterministic like every other
	// reported metric (the snapshot is a pure function of grid state).
	Quality metrics.Quality
	Score   float64
	// FailedNets / BudgetFallbacks are this iteration's containment
	// outcomes (see FaultStats); both zero without faults.
	FailedNets      int
	BudgetFallbacks int
}

// Report is the measurable outcome of one routing run.
type Report struct {
	Design  string
	Variant string

	Quality metrics.Quality
	Score   float64

	Times StageTimes

	// Pattern stage accounting.
	PatternBatches int
	PatternSeqOps  int64         // total DP work (sequential-CPU currency)
	PatternSeqTime time.Duration // modeled single-core time of that work
	HybridEdges    int           // two-pin nets routed by the hybrid kernel
	TotalEdges     int

	// PatternQuality and PatternScore snapshot eq. 15 right after the
	// pattern stage — the starting point of the RRR quality trajectory
	// recorded per iteration in RRR below.
	PatternQuality metrics.Quality
	PatternScore   float64

	// NetsToRipup is the violating-net count right after the pattern stage.
	NetsToRipup int
	RRR         []IterStats
	// MazeTaskGraphTime / MazeBatchTime sum both scheduling models over all
	// iterations, regardless of variant, for Table VIII's scheduler column.
	MazeTaskGraphTime time.Duration
	MazeBatchTime     time.Duration

	// Fault aggregates containment outcomes across the run; all zero in
	// an unfaulted, unbudgeted run.
	Fault FaultStats

	// Sharded-pipeline accounting; all zero when Shards == 0.
	Shards      int // Options.Shards as run
	ShardLeaves int // leaf regions in the cut tree
	// BoundaryNets counts nets whose Steiner tree straddles a cut; they
	// route whole after the leaves in both stages.
	BoundaryNets int
	// BoundaryReroutes counts the boundary nets the rip-up iterations'
	// boundary passes rerouted, summed over iterations: a net rerouted in
	// two iterations counts twice, and failed or over-budget searches do
	// not count.
	BoundaryReroutes int
	// ReconcileTime is always zero. It was the modeled cost of the
	// reconciliation pass that rerouted stitched boundary nets; boundary
	// nets are no longer split, so nothing is stitched or reconciled. The
	// field stays because cmd/e2ebench still reads it.
	ReconcileTime time.Duration

	// PeakHeapBytes is the high-water HeapAlloc observed at stage
	// boundaries (after planning, after the pattern stage, after each
	// rip-up iteration, at finish). A host measurement like the *Wall
	// fields: it varies run to run and is excluded from the
	// bit-identical Report contract.
	PeakHeapBytes uint64
}

// Result bundles the report with the routed state for downstream consumers
// (detailed-routing evaluation, guide dumps, congestion maps).
type Result struct {
	Report Report
	Grid   *grid.Graph
	Design *design.Design
	Trees  []*stt.Tree       // by net ID
	Routes []*route.NetRoute // by net ID
	// FaultSites is the containment layer's per-site accounting (see
	// fault.Snapshot), partial runs included: nil when Options.Fault is
	// nil, and only sites that counted an event are present.
	FaultSites map[string]fault.SiteStats
}

// Route runs the full two-stage flow on a design.
func Route(d *design.Design, opt Options) (*Result, error) {
	return RouteContext(context.Background(), d, opt)
}

// RouteContext is Route under a context. The context is polled at
// coordinator checkpoints only (see cancel.go), so attaching one never
// changes a completed run's output; when it fires, RouteContext returns
// a *CancelError together with a non-nil Result holding the partial
// report and the routes committed so far.
func RouteContext(ctx context.Context, d *design.Design, opt Options) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	r := &runner{ctx: ctx, d: d, opt: opt}
	return r.run()
}

type runner struct {
	ctx context.Context
	d   *design.Design
	opt Options

	g      *grid.Graph
	fc     *fault.Containment
	trees  []*stt.Tree
	routes []*route.NetRoute
	rep    Report

	// stage is the stage the run is inside, "" between stages.
	stage string

	// jHits/jMisses are the cost-cache counter watermarks from the last
	// journaled iteration (see journalIter).
	jHits, jMisses int64

	// The leaf plan the stages route over (see stages.go). intraLeaf exists
	// only for a plan with cuts; the one-leaf plan has none.
	shplan    *shard.Plan
	intraLeaf []int // by net ID: containing leaf ordinal, -1 for boundary nets
}

func (r *runner) run() (*Result, error) {
	r.g = grid.NewFromDesign(r.d)
	r.g.SetObserver(r.opt.Obs)
	if r.opt.Fault != nil {
		r.fc = fault.New(*r.opt.Fault, r.opt.Obs)
	}
	r.rep.Design = r.d.Name
	r.rep.Variant = r.opt.Variant.String()
	// A run that stops inside a stage — cancelled, failed or panicking —
	// never reaches its stageDone. Close the stage here on every exit, or
	// a health tracker shared across runs (the daemon's) reports it
	// running forever.
	defer func() {
		if r.stage != "" {
			r.opt.Obs.H().StageDone(r.stage)
		}
	}()

	err := r.stages()
	if err != nil {
		// Cancelled at a coordinator checkpoint: fall through so the
		// partial report — every committed stage and iteration — rides
		// back alongside the error.
		var ce *CancelError
		if !errors.As(err, &ce) {
			return nil, err
		}
	}
	r.sampleHeap()
	r.finish()

	return &Result{
		Report: r.rep,
		Grid:   r.g,
		Design: r.d,
		Trees:  r.trees,
		Routes: r.routes,

		FaultSites: r.fc.Snapshot(),
	}, err
}

// stages runs the pipeline stage sequence, stopping at the first error
// (a stage failure or a *CancelError from a coordinator checkpoint).
func (r *runner) stages() error {
	if err := r.checkpoint("plan", -1); err != nil {
		return err
	}
	if err := r.plan(); err != nil {
		return err
	}
	r.sampleHeap()
	r.planLeaves()
	// Views copy the parent's history slice header, so history must exist
	// before the first view or bumps made through one never reach
	// Result.Grid. An all-zero store leaves every cost unchanged.
	if r.opt.HistoryRRR {
		r.g.EnableHistory()
	}
	// The one-leaf plan routes every stage through one full-grid view whose
	// cache, prefix sums included, is warmed incrementally for the whole
	// run; the parent stays cold under every plan.
	var full *grid.Graph
	if r.shplan.NumLeaves() == 1 {
		full = r.g.WindowView(r.shplan.Leaf(0))
	}
	if err := r.patternStage(full); err != nil {
		return err
	}
	r.sampleHeap()
	return r.rrrStage(full)
}

// sampleHeap folds the current heap high-water into the report. Called at
// stage boundaries only — never inside parallel sections — so the memory
// claim is measured where a budget-constrained host would feel it. With
// HeapGC it reads live bytes; without, allocator-resident bytes.
func (r *runner) sampleHeap() {
	if r.opt.HeapGC {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > r.rep.PeakHeapBytes {
		r.rep.PeakHeapBytes = ms.HeapAlloc
	}
}

// plan builds and congestion-shifts the Steiner tree of every net (the
// pattern routing planning box of Fig. 5). Nets are independent — the
// estimator is a read-only snapshot and each net writes only its own tree
// slot — so construction fans out over the executor, each net a
// contained unit. Every later stage needs every tree, so a net whose
// planning unit exhausts containment aborts the run with its typed error.
func (r *runner) plan() error {
	start := obs.StartStopwatch()
	sp := r.opt.Obs.T().StartSpan("plan", obs.Coordinator)
	defer sp.End()
	r.stageStart("plan")
	est := r.g.Estimator2D()
	maxID := 0
	for _, n := range r.d.Nets {
		maxID = max(maxID, n.ID)
	}
	r.trees = make([]*stt.Tree, maxID+1)
	r.routes = make([]*route.NetRoute, maxID+1)
	err := taskflow.For(r.workers(), len(r.d.Nets), r.opt.Obs, func(worker, i int) error {
		return r.fc.Run(fault.SitePlan, i, worker, func() error {
			n := r.d.Nets[i]
			t := stt.Build(n)
			if !r.opt.NoEdgeShift {
				t.Shift(est)
			}
			r.trees[n.ID] = t
			return nil
		})
	})
	r.rep.Times.PlanWall = start.Elapsed()
	if err != nil {
		return fmt.Errorf("core: planning: %w", err)
	}
	r.stageDone("plan", r.rep.Times.PlanWall, 0)
	return nil
}

// patternConfig resolves the variant's pattern kernel configuration.
func (r *runner) patternConfig() pattern.Config {
	cfg := pattern.Config{Mode: pattern.LShape}
	if r.opt.Variant == FastGRH {
		cfg = pattern.Config{
			Mode:      pattern.Hybrid,
			Selection: !r.opt.SelectionOff,
			T1:        r.opt.T1,
			T2:        r.opt.T2,
		}
	}
	if r.opt.PatternModeOverride != nil {
		cfg.Mode = *r.opt.PatternModeOverride
		if cfg.Mode != pattern.LShape {
			cfg.Selection = !r.opt.SelectionOff
			cfg.T1, cfg.T2 = r.opt.T1, r.opt.T2
		}
	}
	return cfg
}

// violatingNets returns the nets whose routes cross an over-capacity edge.
// The scan reads only the grid and each net's own route, so it fans out over
// the executor, each net a contained unit; the result list is assembled in
// net order to stay deterministic.
// A scan unit exhausting containment aborts the run: a missing flag would
// silently drop a violating net from rip-up.
func (r *runner) violatingNets() ([]*design.Net, error) {
	flags := make([]bool, len(r.d.Nets))
	err := taskflow.For(r.workers(), len(r.d.Nets), r.opt.Obs, func(worker, i int) error {
		return r.fc.Run(fault.SiteScan, i, worker, func() error {
			if rt := r.routes[r.d.Nets[i].ID]; rt != nil && rt.HasOverflow(r.g) {
				flags[i] = true
			}
			return nil
		})
	})
	if err != nil {
		return nil, fmt.Errorf("core: overflow scan: %w", err)
	}
	var out []*design.Net
	for i, f := range flags {
		if f {
			out = append(out, r.d.Nets[i])
		}
	}
	return out, nil
}

// snapshotQuality evaluates eq. 15 over the current routes and grid — a
// read-only scan, usable mid-pipeline for the per-iteration trajectory.
func (r *runner) snapshotQuality() metrics.Quality {
	var q metrics.Quality
	for _, n := range r.d.Nets {
		if n.ID >= len(r.routes) {
			// A run cancelled before planning finished has no route slots.
			continue
		}
		if rt := r.routes[n.ID]; rt != nil {
			q.Wirelength += rt.Wirelength(r.g)
			q.Vias += rt.ViaCount(r.g)
		}
	}
	wire, via := r.g.Overflow()
	q.Shorts = wire + via
	return q
}

// finish computes final quality, the score and the wall-clock total.
func (r *runner) finish() {
	r.rep.Quality = r.snapshotQuality()
	r.rep.Score = r.rep.Quality.Score()
	r.rep.Times.Total = r.rep.Times.Pattern + r.rep.Times.Maze
	r.rep.Times.WallTotal = r.rep.Times.PlanWall + r.rep.Times.PatternWall + r.rep.Times.MazeWall
}
