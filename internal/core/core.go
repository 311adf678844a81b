// Package core assembles the paper's global-routing framework (Fig. 5):
// pattern routing planning (Steiner trees + edge shifting + net ordering +
// Algorithm-1 batching), the pattern routing stage (CPU-sequential for the
// CUGR baseline, batched GPU kernels for FastGR), and the rip-up-and-reroute
// iterations (batch-barrier parallel maze routing for the baseline,
// task-graph-scheduled maze routing for FastGR).
//
// Three router variants are provided, matching the evaluation:
//
//	CUGR     — sequential L-shape pattern routing + batch-barrier RRR.
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
	"runtime"
	"time"

	"fastgr/internal/design"
	"fastgr/internal/fault"
	"fastgr/internal/gpu"
	"fastgr/internal/grid"
	"fastgr/internal/maze"
	"fastgr/internal/metrics"
	"fastgr/internal/obs"
	"fastgr/internal/par"
	"fastgr/internal/pattern"
	"fastgr/internal/patterngpu"
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
	// MazeAlgorithm selects the rip-up search strategy. The zero value is
	// maze.AStar; maze.Dijkstra is the unguided baseline. Routed geometry
	// is bit-identical either way (the A* bound is strictly admissible
	// under the default cost parameters) — only expansion counts, and with
	// them the modeled maze times, differ.
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
	// MazeNsPerExpansion converts maze search work (node expansions) into
	// modeled time; heap-based Dijkstra costs tens of ns per settled node.
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
	// crash-safe: the journal republishes atomically at every event, so
	// a run killed mid-flight leaves a complete, parseable trajectory.
	Journal *obs.Journal
	// Containment, when non-nil, is a pre-armed fault containment layer
	// the run uses instead of building one from Fault. Callers that need
	// the layer's per-site accounting after the run (fault.Snapshot —
	// the daemon reports it per job) construct it themselves and pass it
	// here; Fault is ignored when Containment is set.
	Containment *fault.Containment
	// Fault, when non-nil, arms the fault containment layer (internal/fault)
	// around every parallel work unit: panics and injected faults are
	// retried, exhausted units degrade (a failed reroute keeps its pattern
	// route, a failed kernel batch falls back to the CPU path) and the
	// Report's FaultStats records the damage. nil runs the uncontained
	// fast paths — bit-identical to builds predating the layer. For a
	// fixed (Fault.Seed, Fault.Probs, MazeBudget), results remain
	// bit-identical at every ExecWorkers count.
	Fault *fault.Options
	// MazeBudget caps the expansions one rip-up maze search may spend;
	// a net that exceeds it keeps its pattern route (recorded as a budget
	// fallback). 0 is unlimited. Works with or without Fault.
	MazeBudget int64
	// Shards selects the sharded spatial pipeline (internal/shard): the
	// grid is bisected into leaf regions on pin density, intra-leaf nets
	// route against leaf-windowed cost caches with up to Shards leaf
	// groups running concurrently, and boundary nets are split at the
	// cuts, stitched, and reconciled at coordinator points. Routed output
	// is bit-identical for every Shards >= 1 (the cut tree never depends
	// on the count); 0, the default, is the monolithic pipeline,
	// bit-identical to builds predating sharding. Sharded and monolithic
	// outputs may differ: the monolithic pattern stage reads segment
	// costs through full-grid prefix sums, whose rounding a windowed
	// cache deliberately avoids.
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
	// SkippedNets counts rip-up tasks never run because a task-graph
	// dependency failed (FastGR scheduling only; the batch-barrier
	// baseline has no dependents to skip).
	SkippedNets int
	// KernelFallbacks counts pattern-stage batches degraded to the CPU
	// baseline path.
	KernelFallbacks int
	// BudgetFallbacks counts rip-up searches abandoned over budget
	// (configured or injected); those nets keep their pattern route.
	BudgetFallbacks int
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
	Expansions    int64         // total maze expansions
	TaskGraphTime time.Duration // modeled DAG-schedule makespan
	BatchTime     time.Duration // modeled batch-barrier makespan
	ConflictEdges int
	// Quality and Score snapshot the eq.-15 metrics after this iteration
	// committed — the per-iteration trajectory of how rip-up trades
	// wirelength and vias for shorts. Deterministic like every other
	// reported metric (the snapshot is a pure function of grid state).
	Quality metrics.Quality
	Score   float64
	// FailedNets / SkippedNets / BudgetFallbacks are this iteration's
	// containment outcomes (see FaultStats); all zero without faults.
	FailedNets      int
	SkippedNets     int
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
	// BoundaryNets counts nets whose Steiner tree straddles a cut and was
	// split into per-leaf fragments.
	BoundaryNets int
	// BoundaryReroutes counts boundary nets rerouted whole by the
	// reconciliation pass after stitching left them overflowed.
	BoundaryReroutes int
	// ReconcileTime is the modeled cost of those reconciliation searches
	// (expansions x MazeNsPerExpansion); it is included in Times.Maze.
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
	if opt.RRRIters < 0 || opt.Workers < 0 || opt.Shards < 0 {
		return nil, fmt.Errorf("core: negative option")
	}
	r := &runner{ctx: ctx, d: d, opt: opt}
	return r.run()
}

type runner struct {
	ctx context.Context
	d   *design.Design
	opt Options

	g      *grid.Graph
	pool   *par.Pool
	fc     *fault.Containment
	trees  []*stt.Tree
	routes []*route.NetRoute
	rep    Report

	// jHits/jMisses are the cost-cache counter watermarks from the last
	// journaled iteration (see journalIter).
	jHits, jMisses int64

	// Sharded-pipeline state (see shardpipe.go); nil/empty when Shards == 0.
	shplan    *shard.Plan
	intraLeaf []int          // by net ID: containing leaf ordinal, -1 for boundary nets
	splits    []*shard.Split // by net ID: fragment decomposition of boundary nets
}

func (r *runner) run() (*Result, error) {
	r.g = grid.NewFromDesign(r.d)
	r.g.SetObserver(r.opt.Obs)
	r.pool = par.NewPool(r.opt.ExecWorkers)
	r.pool.SetObserver(r.opt.Obs)
	if r.opt.Containment != nil {
		r.fc = r.opt.Containment
		r.pool.SetFault(r.fc)
	} else if r.opt.Fault != nil {
		r.fc = fault.New(*r.opt.Fault, r.opt.Obs)
		r.pool.SetFault(r.fc)
	}
	r.rep.Design = r.d.Name
	r.rep.Variant = r.opt.Variant.String()

	err := r.stages()
	if err != nil {
		var ce *CancelError
		if !errors.As(err, &ce) {
			return nil, err
		}
		// Cancelled at a coordinator checkpoint: fall through so the
		// partial report — every committed stage and iteration — rides
		// back alongside the error. The interrupted stage never reaches
		// its StageDone, so clear the health tracker here — a daemon
		// sharing one tracker across runs must not see a dead stage
		// "running" forever.
		r.opt.Obs.H().AbortAll()
	}
	r.sampleHeap()
	r.finish()

	return &Result{
		Report: r.rep,
		Grid:   r.g,
		Design: r.d,
		Trees:  r.trees,
		Routes: r.routes,
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
	if r.opt.Shards >= 1 {
		r.shardSetup()
		if err := r.shardPatternStage(); err != nil {
			return err
		}
		r.sampleHeap()
		return r.shardRRRStage()
	}
	if err := r.patternStage(); err != nil {
		return err
	}
	r.sampleHeap()
	return r.rrrStage()
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
// slot — so construction fans out over the executor pool. Every later
// stage needs every tree, so a net whose planning unit exhausts
// containment aborts the run with its typed error.
func (r *runner) plan() error {
	start := obs.StartStopwatch()
	sp := r.opt.Obs.T().StartSpan("plan", obs.Coordinator)
	defer sp.End()
	r.stageStart("plan")
	est := r.g.Estimator2D()
	maxID := 0
	for _, n := range r.d.Nets {
		if n.ID > maxID {
			maxID = n.ID
		}
	}
	r.trees = make([]*stt.Tree, maxID+1)
	r.routes = make([]*route.NetRoute, maxID+1)
	errs := r.pool.ForUnits(fault.SitePlan, len(r.d.Nets), func(_, i int) error {
		n := r.d.Nets[i]
		t := stt.Build(n)
		if !r.opt.NoEdgeShift {
			t.Shift(est)
		}
		r.trees[n.ID] = t
		return nil
	})
	r.rep.Times.PlanWall = start.Elapsed()
	if len(errs) > 0 {
		return fmt.Errorf("core: planning: %w", errs[0])
	}
	r.stageDone("plan", r.rep.Times.PlanWall, 0)
	return nil
}

// patternStage routes every net with the variant's pattern kernel, batch by
// batch, committing demand after each batch. Batch boundaries are
// coordinator checkpoints: a cancelled run stops between batches with
// every committed batch intact.
func (r *runner) patternStage() error {
	start := obs.StartStopwatch()
	tr := r.opt.Obs.T()
	sp := tr.StartSpan("pattern", obs.Coordinator)
	defer sp.End()
	r.stageStart("pattern")

	ordered := append([]*design.Net(nil), r.d.Nets...)
	sched.SortNets(ordered, r.opt.Scheme)
	tasks := make([]sched.Task, len(ordered))
	for i, n := range ordered {
		tasks[i] = sched.Task{ID: i, BBox: r.trees[n.ID].BBox(), Payload: n}
	}
	batches := sched.ExtractBatches(tasks)
	sched.ObserveBatches(r.opt.Obs.M(), batches)
	r.rep.PatternBatches = len(batches)

	cfg := r.patternConfig()

	switch r.opt.Variant {
	case CUGR:
		// Sequential CPU pattern routing, net by net in batch order. The
		// cost cache is rewarmed at each batch boundary; commits inside the
		// batch dirty the touched lines, whose queries fall back to the
		// direct formula until the next warm.
		var ops int64
		for bi, batch := range batches {
			if err := r.checkpoint("pattern", -1); err != nil {
				return err
			}
			r.g.WarmCostCache()
			bsp := batchSpan(tr, bi)
			for _, task := range batch {
				n := task.Payload.(*design.Net)
				res := pattern.SolveCPU(r.g, r.trees[n.ID], cfg)
				res.Route.Commit(r.g)
				r.routes[n.ID] = res.Route
				ops += res.Ops.Total()
				r.rep.TotalEdges += res.Edges
				r.rep.HybridEdges += res.HybridEdges
			}
			bsp.End()
			r.stageBeat("pattern")
		}
		r.rep.PatternSeqOps = ops
		r.rep.PatternSeqTime = r.opt.CPU.SequentialTime(ops)
		r.rep.Times.Pattern = r.rep.PatternSeqTime
		if m := r.opt.Obs.M(); m != nil {
			m.Counter(obs.MPatternHybrid).Add(int64(r.rep.HybridEdges))
			m.Counter(obs.MPatternLShape).Add(int64(r.rep.TotalEdges - r.rep.HybridEdges))
		}
	default:
		// GPU-friendly pattern routing: one kernel per batch, one block per
		// net (Fig. 7). Host workers solve the batch's nets concurrently;
		// commits stay in batch order below.
		router := patterngpu.New(r.opt.Device, cfg)
		router.Workers = r.pool.Workers()
		router.Obs = r.opt.Obs
		router.Fault = r.fc
		router.CPU = r.opt.CPU
		for bi, batch := range batches {
			if err := r.checkpoint("pattern", -1); err != nil {
				return err
			}
			bsp := batchSpan(tr, bi)
			trees := make([]*stt.Tree, len(batch))
			nets := make([]*design.Net, len(batch))
			for i, task := range batch {
				nets[i] = task.Payload.(*design.Net)
				trees[i] = r.trees[nets[i].ID]
			}
			br := router.RouteBatch(r.g, trees)
			if br.CPUFallback {
				r.rep.Fault.KernelFallbacks++
			}
			for i, res := range br.Results {
				res.Route.Commit(r.g)
				r.routes[nets[i].ID] = res.Route
				r.rep.TotalEdges += res.Edges
				r.rep.HybridEdges += res.HybridEdges
			}
			r.rep.PatternSeqOps += br.SeqOps
			r.rep.Times.Pattern += br.KernelTime
			bsp.End()
			r.stageBeat("pattern")
		}
		r.rep.PatternSeqTime = r.opt.CPU.SequentialTime(r.rep.PatternSeqOps)
	}
	r.rep.PatternQuality = r.snapshotQuality()
	r.rep.PatternScore = r.rep.PatternQuality.Score()
	r.rep.Times.PatternWall = start.Elapsed()
	r.stageDone("pattern", r.rep.Times.PatternWall, r.rep.PatternScore)
	return nil
}

// patternConfig resolves the variant's pattern kernel configuration —
// shared by the monolithic and sharded pattern stages.
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

// batchSpan opens a per-batch span on the stages lane; the formatting
// only runs when tracing is on.
func batchSpan(tr *obs.Tracer, batch int) obs.Span {
	if !tr.On() {
		return obs.Span{}
	}
	return tr.StartSpan(fmt.Sprintf("pattern.batch[%d]", batch), obs.Coordinator)
}

// rrrStage runs the rip-up-and-reroute iterations with the variant's
// scheduling strategy.
func (r *runner) rrrStage() error {
	start := obs.StartStopwatch()
	tr := r.opt.Obs.T()
	stageSp := tr.StartSpan("rrr", obs.Coordinator)
	defer stageSp.End()
	r.stageStart("rrr")
	scheme := r.opt.Scheme
	if r.opt.RRRSchemeOverride != nil {
		scheme = *r.opt.RRRSchemeOverride
	}
	if r.opt.HistoryRRR {
		r.g.EnableHistory()
	}

	// One maze scratch per executor worker, reused across nets and
	// iterations: the search hot path then allocates nothing but the routes
	// it returns. Worker ids come from the executors below, which guarantee
	// a worker id is never used by two goroutines at once.
	searches := make([]*maze.Search, r.pool.Workers())
	for i := range searches {
		searches[i] = maze.NewSearch()
		searches[i].SetAlgorithm(r.opt.MazeAlgorithm)
		searches[i].SetObserver(r.opt.Obs)
		searches[i].SetBudget(r.opt.MazeBudget)
	}

	for iter := 0; iter < r.opt.RRRIters; iter++ {
		if err := r.checkpoint("rrr", iter); err != nil {
			return err
		}
		var iterSp obs.Span
		if tr.On() {
			iterSp = tr.StartSpan(fmt.Sprintf("rrr.iter[%d]", iter), obs.Coordinator)
		}
		violating, scanErr := r.violatingNets()
		if scanErr != nil {
			return scanErr
		}
		if iter == 0 {
			r.rep.NetsToRipup = len(violating)
		}
		if len(violating) == 0 {
			iterSp.End()
			break
		}
		// Rewarm the cost field at the iteration boundary — the last
		// single-threaded point before workers uncommit/reroute/commit in
		// disjoint windows. Mid-iteration mutations write the new edge cost
		// through, so per-edge reads are always current and the warm only
		// re-sums prefix runs; results are independent of cache state and
		// of the worker count.
		r.g.WarmCostCache()
		sched.SortNets(violating, scheme)

		// Two task views: the execution graph conflicts on the full maze
		// window (tasks with disjoint windows touch disjoint grid state and
		// may safely run concurrently), while the reported scheduling models
		// conflict on the net bounding boxes, as the paper's task graph does.
		tasks := make([]sched.Task, len(violating))
		modelTasks := make([]sched.Task, len(violating))
		for i, n := range violating {
			win := n.BBox().Inflate(r.opt.MazeMargin).ClampTo(r.g.W, r.g.H)
			tasks[i] = sched.Task{ID: i, BBox: win, Payload: n}
			modelTasks[i] = sched.Task{ID: i, BBox: n.BBox(), Payload: n}
		}
		graph := sched.BuildGraph(tasks, r.g.W, r.g.H)
		modelGraph := sched.BuildGraph(modelTasks, r.g.W, r.g.H)

		durations := make([]time.Duration, len(tasks))
		expansions := make([]int64, len(tasks))
		budgetTrips := make([]bool, len(tasks))
		// work reroutes one task; it is retry-safe: injections fire at
		// wrapper entry (before any grid mutation) and the Committed guards
		// make the uncommit/restore idempotent, so a retried unit always
		// starts from the committed old route. A budget trip — real or
		// injected — is a graceful outcome (the net keeps its current
		// route), any other maze error is a hard abort.
		work := func(worker, ti int) error {
			n := tasks[ti].Payload.(*design.Net)
			var sp obs.Span
			if tr.On() {
				sp = tr.StartSpan("maze:"+n.Name, worker)
			}
			defer sp.End()
			if r.fc.InjectBudget(ti, worker) {
				budgetTrips[ti] = true
				return nil
			}
			old := r.routes[n.ID]
			if old.Committed() {
				old.Uncommit(r.g)
			}
			pins := route.PinTerminals(r.trees[n.ID])
			nr, st, err := searches[worker].RouteNet(r.g, n.ID, pins, tasks[ti].BBox)
			if err != nil {
				// Restore the old route so the grid stays consistent.
				if !old.Committed() {
					old.Commit(r.g)
				}
				var be *maze.BudgetError
				if errors.As(err, &be) {
					budgetTrips[ti] = true
					expansions[ti] = st.Expansions
					durations[ti] = time.Duration(float64(st.Expansions) * r.opt.MazeNsPerExpansion)
					r.fc.Degrade(fault.SiteBudget, 1)
					return nil
				}
				return err
			}
			nr.Commit(r.g)
			r.routes[n.ID] = nr
			expansions[ti] = st.Expansions
			durations[ti] = time.Duration(float64(st.Expansions) * r.opt.MazeNsPerExpansion)
			return nil
		}

		iterFailed := 0
		iterSkipped := 0
		if r.opt.Variant == CUGR {
			// Batch-barrier strategy: batches execute in order with a full
			// barrier between them; tasks inside a batch have disjoint maze
			// windows and run on the worker pool (modeled as P-worker
			// parallel below either way). A unit that exhausts containment
			// leaves its net on the old route; an uncontained maze error
			// aborts the iteration.
			for _, batch := range sched.ExtractBatches(tasks) {
				errs := r.pool.ForUnits(fault.SiteTask, len(batch), func(worker, bi int) error {
					return work(worker, batch[bi].ID)
				})
				for _, we := range errs {
					if !we.Contained {
						return fmt.Errorf("core: rip-up iteration %d: %w", iter, we.Cause)
					}
					iterFailed++
				}
			}
		} else {
			frep := taskflow.RunWorkersFault(graph, r.pool.Workers(), r.opt.Obs, r.fc, work)
			if frep.CancelErr != nil {
				return fmt.Errorf("core: rip-up iteration %d: %w", iter, frep.CancelErr)
			}
			iterFailed = len(frep.Failed)
			iterSkipped = len(frep.Skipped)
		}
		r.rep.Fault.FailedNets += iterFailed
		r.rep.Fault.SkippedNets += iterSkipped

		// Both scheduling models over the same recorded durations, on the
		// paper-faithful (bounding-box) conflict structure.
		idBatches := [][]int{}
		for _, b := range sched.ExtractBatches(modelTasks) {
			ids := make([]int, len(b))
			for i, task := range b {
				ids[i] = task.ID
			}
			idBatches = append(idBatches, ids)
		}
		tg := taskflow.Makespan(modelGraph, durations, r.opt.Workers)
		bb := taskflow.BatchMakespan(idBatches, durations, r.opt.Workers)

		var totalExp int64
		for _, e := range expansions {
			totalExp += e
		}
		iterBudget := 0
		for _, tripped := range budgetTrips {
			if tripped {
				iterBudget++
			}
		}
		r.rep.Fault.BudgetFallbacks += iterBudget
		iterQ := r.snapshotQuality()
		st := IterStats{
			Nets:            len(violating),
			Expansions:      totalExp,
			TaskGraphTime:   tg,
			BatchTime:       bb,
			ConflictEdges:   modelGraph.Edges,
			Quality:         iterQ,
			Score:           iterQ.Score(),
			FailedNets:      iterFailed,
			SkippedNets:     iterSkipped,
			BudgetFallbacks: iterBudget,
		}
		r.rep.RRR = append(r.rep.RRR, st)
		if m := r.opt.Obs.M(); m != nil {
			m.Counter(obs.MRRRNets).Add(int64(len(violating)))
			m.Counter(obs.MRRRExpansions).Add(totalExp)
			m.Gauge(obs.MRRRIterations).Set(int64(iter + 1))
			m.Gauge(obs.MRRROverflow).Set(int64(iterQ.Shorts))
		}
		r.rep.MazeTaskGraphTime += tg
		r.rep.MazeBatchTime += bb
		if r.opt.Variant == CUGR {
			r.rep.Times.Maze += bb
		} else {
			r.rep.Times.Maze += tg
		}
		if r.opt.HistoryRRR {
			bump := r.opt.HistoryBump
			if bump <= 0 {
				bump = 0.5
			}
			r.g.BumpOverflowHistory(bump)
		}
		r.sampleHeap()
		r.stageBeat("rrr")
		r.journalIter(iter, st, iterQ)
		iterSp.End()
	}
	r.rep.Times.MazeWall = start.Elapsed()
	score := r.rep.PatternScore
	if n := len(r.rep.RRR); n > 0 {
		score = r.rep.RRR[n-1].Score
	}
	r.stageDone("rrr", r.rep.Times.MazeWall, score)
	return nil
}

// violatingNets returns the nets whose routes cross an over-capacity edge.
// The scan reads only the grid and each net's own route, so it fans out over
// the pool; the result list is assembled in net order to stay deterministic.
// A scan unit exhausting containment aborts the run: a missing flag would
// silently drop a violating net from rip-up.
func (r *runner) violatingNets() ([]*design.Net, error) {
	flags := make([]bool, len(r.d.Nets))
	errs := r.pool.ForUnits(fault.SiteScan, len(r.d.Nets), func(_, i int) error {
		if rt := r.routes[r.d.Nets[i].ID]; rt != nil && rt.HasOverflow(r.g) {
			flags[i] = true
		}
		return nil
	})
	if len(errs) > 0 {
		return nil, fmt.Errorf("core: overflow scan: %w", errs[0])
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
