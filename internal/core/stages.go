// The stage driver: one pattern stage and one rip-up-and-reroute stage,
// both run over a leaf plan (internal/shard). Options.Shards = 0 is the
// one-leaf plan — the whole grid, no cuts, no boundary nets. K >= 1 is the
// cut plan: the grid is bisected into leaf regions on pin density,
// intra-leaf nets route fully inside their leaf against a leaf-windowed
// cost cache, and nets straddling a cut are split into per-leaf fragments
// routed against the frozen halo state, then stitched at a sequential
// coordinator point. Boundary-net reroutes — reconciliation and each rip-up
// iteration's boundary pass — run as task graphs whose conflict edges keep
// their serial order (boundaryPass).
//
// Shard-count invariance. Every decision below derives from the cut tree
// (a pure function of design and margin) or happens at a coordinator
// point in canonical net order, or in a task graph equivalent to it. The
// shard count K only picks how leaves are grouped onto executor slots;
// leaves touch provably disjoint grid edges (an intra-leaf route never
// commits an edge leaving its leaf, and crossing edges are committed only
// at the stitch point), so the demand trajectory each leaf observes is
// independent of which other leaves run beside it. Routed output is
// therefore bit-identical for every K >= 1 and every ExecWorkers count.
//
// Memory. The parent graph's cost cache is never warmed. Every view keeps
// the same cache — values, prefix runs and dirty flags — over its own
// window. The one-leaf plan's full-grid view lives for the whole run; under
// a cut plan a slot warms one leaf-sized view at a time, each boundary pass
// one full-grid view that lives only for the pass, and the stitch reads the
// direct formula. A maze scratch drops its view when RouteNet returns, so
// scratches kept across iterations pin no view. Peak heap (Report.PeakHeapBytes, sampled between passes)
// shrinks with the leaf size.
package core

import (
	"errors"
	"fmt"
	"time"

	"fastgr/internal/design"
	"fastgr/internal/fault"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/maze"
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

// planLeaves builds the leaf plan. The one-leaf plan classifies nothing:
// every net is intra-leaf. A cut plan classifies every net: a net whose
// Steiner tree fits inside one leaf is intra (routed wholly by that leaf);
// anything else is split into per-leaf fragments plus the crossing edges
// the stitcher will realize. Classification runs at a coordinator point
// and depends only on (design, margin) — never on the shard count.
func (r *runner) planLeaves() {
	if r.opt.Shards == 0 {
		r.shplan = shard.Whole(r.d.GridW, r.d.GridH)
		return
	}
	sp := r.opt.Obs.T().StartSpan("shard.plan", obs.Coordinator)
	defer sp.End()
	r.shplan = shard.BuildPlan(r.d, r.opt.MazeMargin)
	r.rep.Shards = r.opt.Shards
	r.rep.ShardLeaves = r.shplan.NumLeaves()
	r.intraLeaf = make([]int, len(r.trees))
	r.splits = make([]*shard.Split, len(r.trees))
	for _, n := range r.d.Nets {
		t := r.trees[n.ID]
		if r.intraLeaf[n.ID] = r.shplan.LeafOf(t.BBox()); r.intraLeaf[n.ID] < 0 {
			r.splits[n.ID] = shard.SplitTree(r.shplan, t)
			r.rep.BoundaryNets++
		}
	}
}

// leafOf is the leaf a net routes in: -1 for a boundary net, and leaf 0
// for every net of the one-leaf plan.
func (r *runner) leafOf(id int) int {
	if r.intraLeaf == nil {
		return 0
	}
	return r.intraLeaf[id]
}

// leafGroups sizes the two-level executor: outer slots iterate leaf
// groups, inner workers execute inside one leaf, and outer*inner never
// exceeds the executor pool. A single slot (one leaf, K = 1 or one exec
// worker) runs inline on the coordinator goroutine, so it may poll the
// context between batches and draw spans on the stages lane.
func (r *runner) leafGroups() (groups [][]int, outer, inner int) {
	groups = r.shplan.Groups(r.opt.Shards)
	outer = min(len(groups), r.pool.Workers())
	inner = max(r.pool.Workers()/outer, 1)
	return groups, outer, inner
}

// byLeaf splits tasks into per-leaf lists, each in input order. The
// one-leaf plan's list is tasks itself.
func (r *runner) byLeaf(tasks []sched.Task) [][]sched.Task {
	out := make([][]sched.Task, r.shplan.NumLeaves())
	if len(out) == 1 {
		out[0] = tasks
		return out
	}
	for _, t := range tasks {
		leaf := r.taskLeaf(t)
		out[leaf] = append(out[leaf], t)
	}
	return out
}

// patItem is the payload of a boundary-net fragment's pattern task. An
// intra net's task carries the bare *design.Net instead, so the one-leaf
// plan allocates no item per net.
type patItem struct {
	*shard.Fragment
	net  *design.Net
	frag int // index into splits[net.ID].Fragments
}

// taskLeaf is the leaf a pattern or rip-up task routes in.
func (r *runner) taskLeaf(t sched.Task) int {
	if it, ok := t.Payload.(*patItem); ok {
		return it.Leaf
	}
	return r.leafOf(t.Payload.(*design.Net).ID)
}

// patTask unpacks a pattern task: its net, the trees to route — an intra
// net's own tree as a one-element window of r.trees — and the fragment
// index, -1 for an intra net.
func (r *runner) patTask(t sched.Task) (*design.Net, []*stt.Tree, int) {
	if it, ok := t.Payload.(*patItem); ok {
		return it.net, it.Trees, it.frag
	}
	n := t.Payload.(*design.Net)
	return n, r.trees[n.ID : n.ID+1], -1
}

// leafAcct accumulates one leaf's pattern-stage accounting; the slices of
// these are reduced in leaf-ordinal order after the barrier so every
// reported number is independent of execution interleaving.
type leafAcct struct {
	seqOps      int64
	kernelTime  time.Duration
	totalEdges  int
	hybridEdges int
	fallbacks   int
}

func itemBBox(trees []*stt.Tree) geom.Rect {
	bb := trees[0].BBox()
	for _, t := range trees[1:] {
		bb = bb.Union(t.BBox())
	}
	return bb
}

// mazeWindow is a net's rip-up search window: its bounding box inflated
// by MazeMargin, clamped to the grid.
func (r *runner) mazeWindow(n *design.Net) geom.Rect {
	return n.BBox().Inflate(r.opt.MazeMargin).ClampTo(r.g.W, r.g.H)
}

// newSearch builds a maze scratch configured from the options.
func (r *runner) newSearch() *maze.Search {
	s := maze.NewSearch()
	s.SetAlgorithm(r.opt.MazeAlgorithm)
	s.SetObserver(r.opt.Obs)
	s.SetBudget(r.opt.MazeBudget)
	return s
}

// rerouteNet rips n up on g and maze-routes it within win, committing the
// new route, and returns the search's work. The Committed guards make it
// retry-safe: a retried unit starts from the committed old route. Any maze
// error puts the old route back; a budget trip — the net keeps its route —
// is a graceful outcome reported as tripped, any other error is returned.
func (r *runner) rerouteNet(g *grid.Graph, sr *maze.Search, n *design.Net, win geom.Rect) (st maze.Stats, tripped bool, err error) {
	old := r.routes[n.ID]
	if old.Committed() {
		old.Uncommit(g)
	}
	nr, st, err := sr.RouteNet(g, n.ID, route.PinTerminals(r.trees[n.ID]), win)
	if err != nil {
		if !old.Committed() {
			old.Commit(g)
		}
		if errors.As(err, new(*maze.BudgetError)) {
			r.fc.Degrade(fault.SiteBudget, 1)
			return st, true, nil
		}
		return st, false, err
	}
	nr.Commit(g)
	r.routes[n.ID] = nr
	return st, false, nil
}

// mazeTime is the modeled time of settled search nodes — 3-D expansions
// and the A* bound's plane cells alike — at MazeNsPerExpansion.
func (r *runner) mazeTime(settled int64) time.Duration {
	return time.Duration(float64(settled) * r.opt.MazeNsPerExpansion)
}

func uncommitAll(g *grid.Graph, routes []*route.NetRoute) {
	for _, rt := range routes {
		if rt != nil && rt.Committed() {
			rt.Uncommit(g)
		}
	}
}

// patternStage routes every net with the variant's pattern kernel: each
// leaf routes its intra nets and boundary-net fragments batch by batch
// behind its view, then a cut plan's fragments are stitched and
// reconciled. full is the one-leaf plan's view, nil under a cut plan.
func (r *runner) patternStage(full *grid.Graph) error {
	groups, outer, inner := r.leafGroups()
	coord := outer == 1
	if !coord {
		// Fanned-out slots never poll the context: the stage checkpoints
		// once, before it starts.
		if err := r.checkpoint("pattern", -1); err != nil {
			return err
		}
	}
	cut := r.shplan.NumLeaves() > 1
	start := obs.StartStopwatch()
	tr := r.opt.Obs.T()
	sp := tr.StartSpan("pattern", obs.Coordinator)
	defer sp.End()
	r.stageStart("pattern")

	// One task per intra net and one per (boundary net, leaf) fragment, in
	// the global scheme order: a leaf's list is that order filtered to its
	// members, a pure function of the cut tree.
	ordered := append([]*design.Net(nil), r.d.Nets...)
	sched.SortNets(ordered, r.opt.Scheme)
	tasks := make([]sched.Task, 0, len(ordered))
	var fragRoutes [][]*route.NetRoute
	if cut {
		fragRoutes = make([][]*route.NetRoute, len(r.routes))
	}
	for _, n := range ordered {
		if r.leafOf(n.ID) >= 0 {
			tasks = append(tasks, sched.Task{BBox: r.trees[n.ID].BBox(), Payload: n})
			continue
		}
		s := r.splits[n.ID]
		fragRoutes[n.ID] = make([]*route.NetRoute, len(s.Fragments))
		for fi := range s.Fragments {
			f := &s.Fragments[fi]
			tasks = append(tasks, sched.Task{BBox: itemBBox(f.Trees), Payload: &patItem{Fragment: f, net: n, frag: fi}})
		}
	}
	leafTasks := r.byLeaf(tasks)
	leafBatches := make([][][]sched.Task, len(leafTasks))
	for leaf, lt := range leafTasks {
		leafBatches[leaf] = sched.ExtractBatches(lt)
		sched.ObserveBatches(r.opt.Obs.M(), leafBatches[leaf])
		r.rep.PatternBatches += len(leafBatches[leaf])
	}

	cfg := r.patternConfig()
	accts := make([]leafAcct, len(leafTasks))
	// A lone slot runs on the coordinator: it checkpoints and spans every
	// batch, and its kernel routers record their batch spans and metrics.
	// stopped is written by that slot only.
	var kobs *obs.Observer
	if coord {
		kobs = r.opt.Obs
	}
	var stopped error
	// Slot fan-out: slot s owns groups s, s+outer, ... — leaves never
	// migrate between goroutines mid-stage, and a leaf's batches run in
	// their canonical order. The outer pool carries no observer (its
	// lanes belong to the inner executors).
	par.NewPool(outer).For(outer, func(_, s int) {
		nb := 0
		var solver pattern.Solver // the CUGR path's scratch for this slot
		for gi := s; gi < len(groups); gi += outer {
			for _, leaf := range groups[gi] {
				if len(leafBatches[leaf]) == 0 {
					continue
				}
				view := full
				if view == nil {
					view = r.g.WindowView(r.shplan.Leaf(leaf))
				}
				// One router per leaf: the batch-ordinal base keyed by the
				// leaf keeps kernel fault-injection units disjoint across
				// leaves and invariant in K.
				var router *patterngpu.Router
				if r.opt.Variant != CUGR {
					router = patterngpu.New(r.opt.Device, cfg)
					router.Workers = inner
					router.Obs = kobs
					router.Fault = r.fc
					router.CPU = r.opt.CPU
					router.SetBatchBase(leaf << 20)
				}
				for _, batch := range leafBatches[leaf] {
					if coord {
						if stopped = r.checkpoint("pattern", -1); stopped != nil {
							return
						}
					}
					var bsp obs.Span
					if coord && tr.On() {
						bsp = tr.StartSpan(fmt.Sprintf("pattern.batch[%d]", nb), obs.Coordinator)
					}
					nb++
					r.patternBatch(view, router, &solver, cfg, &accts[leaf], batch, fragRoutes)
					bsp.End()
					r.stageBeat("pattern")
				}
			}
		}
	})

	var kernelTime time.Duration
	for _, a := range accts {
		r.rep.PatternSeqOps += a.seqOps
		kernelTime += a.kernelTime
		r.rep.TotalEdges += a.totalEdges
		r.rep.HybridEdges += a.hybridEdges
		r.rep.Fault.KernelFallbacks += a.fallbacks
	}
	r.rep.PatternSeqTime = r.opt.CPU.SequentialTime(r.rep.PatternSeqOps)
	r.rep.Times.Pattern = kernelTime
	if r.opt.Variant == CUGR {
		r.rep.Times.Pattern = r.rep.PatternSeqTime
	}
	// The stitch is the stage's last coordinator pass; checking before it
	// means a cancelled run stops before rewriting any boundary net.
	if stopped == nil && cut {
		stopped = r.checkpoint("stitch", -1)
	}
	if stopped != nil {
		// A cancelled run keeps whole routes only, so committed demand
		// stays the demand of Result.Routes.
		for _, frs := range fragRoutes {
			uncommitAll(r.g, frs)
		}
		return stopped
	}
	// Kernel routers holding the observer counted their own batches.
	if m := r.opt.Obs.M(); m != nil && (r.opt.Variant == CUGR || kobs == nil) {
		m.Counter(obs.MPatternHybrid).Add(int64(r.rep.HybridEdges))
		m.Counter(obs.MPatternLShape).Add(int64(r.rep.TotalEdges - r.rep.HybridEdges))
	}
	if cut {
		if err := r.stitchAndReconcile(fragRoutes); err != nil {
			return err
		}
		// The fragment decompositions duplicate every boundary net's
		// Steiner geometry; once stitched routes are committed nothing
		// reads them again (RRR classifies via intraLeaf and reroutes whole
		// nets), so release them rather than carry them to the stage's
		// high-water mark.
		r.splits = nil
	}
	r.rep.PatternQuality = r.snapshotQuality()
	r.rep.PatternScore = r.rep.PatternQuality.Score()
	r.rep.Times.PatternWall = start.Elapsed()
	r.stageDone("pattern", r.rep.Times.PatternWall, r.rep.PatternScore)
	return nil
}

// patternBatch routes one conflict-free batch and commits it in batch
// order through view. The GPU variants solve it as one kernel (Fig. 7)
// first; CUGR (router == nil) solves on solver and commits net by net. A
// fragment's results merge into one route for its fragRoutes slot.
func (r *runner) patternBatch(view *grid.Graph, router *patterngpu.Router, solver *pattern.Solver, cfg pattern.Config, a *leafAcct, batch []sched.Task, fragRoutes [][]*route.NetRoute) {
	var kernel []pattern.Result
	var merge route.Builder
	if router != nil {
		trees := make([]*stt.Tree, 0, len(batch))
		for _, task := range batch {
			_, ts, _ := r.patTask(task)
			trees = append(trees, ts...)
		}
		br := router.RouteBatch(view, trees)
		kernel = br.Results
		a.seqOps += br.SeqOps
		a.kernelTime += br.KernelTime
		if br.CPUFallback {
			a.fallbacks++
		}
	} else {
		// Rewarm at the batch boundary: commits write their edges' costs
		// through, so only the prefix runs lag.
		view.WarmCostCache()
	}
	for _, task := range batch {
		n, trees, frag := r.patTask(task)
		var results []pattern.Result
		if router != nil {
			results, kernel = kernel[:len(trees)], kernel[len(trees):]
		} else {
			var one [1]pattern.Result
			results = one[:0]
			for _, t := range trees {
				res := solver.SolveCPU(view, t, cfg)
				a.seqOps += res.Ops.Total()
				results = append(results, res)
			}
		}
		for _, res := range results {
			a.totalEdges += res.Edges
			a.hybridEdges += res.HybridEdges
		}
		nr := results[0].Route
		if len(results) > 1 {
			merge.Reset(view, n.ID)
			for _, res := range results {
				merge.AddRoute(res.Route)
			}
			nr = merge.Build()
		}
		nr.Commit(view)
		if frag < 0 {
			r.routes[n.ID] = nr
		} else {
			fragRoutes[n.ID][frag] = nr
		}
	}
}

// boundaryPassProbe, when set (by tests only), sees the runner at the start
// and the end of every boundary pass.
var boundaryPassProbe func(r *runner)

// boundaryPass runs one pass over boundary nets — reconciliation, or a
// rip-up iteration's boundary reroutes — as a task graph on the executor
// pool. The tasks are listed in the pass's serial order, and task.BBox is
// the net's maze window: a boundary net's route lies inside that window
// (TestBoundaryRoutesStayInWindow), so a task's overflow check, rip-up,
// search and commit touch only edges inside it. sched.OrderGraph points
// every conflict edge from the earlier task to the later one, which makes
// any schedule of the graph commit exactly what the serial loop did. The
// pass routes through one full-grid view built and warmed here, at the
// coordinator, and dropped with the pass: the next iteration's leaf views
// write through to their own caches, never to this one. body runs once per
// task with the view and its worker's maze scratch; the first error a body
// returns cancels the rest of the pass and is returned.
func (r *runner) boundaryPass(tasks []sched.Task, body func(view *grid.Graph, sr *maze.Search, lane int, task sched.Task) error) error {
	if boundaryPassProbe != nil {
		boundaryPassProbe(r)
		defer boundaryPassProbe(r)
	}
	if len(tasks) == 0 {
		return nil
	}
	view := r.g.WindowView(geom.Rect{Hi: geom.Point{X: r.g.W - 1, Y: r.g.H - 1}})
	view.WarmCostCache()
	workers := r.pool.Workers()
	// The scratches grow to the largest boundary windows, so they live for
	// one pass only.
	searches := make([]*maze.Search, workers)
	for i := range searches {
		searches[i] = r.newSearch()
	}
	rep := taskflow.RunWorkersFault(sched.OrderGraph(tasks, r.g.W, r.g.H), workers, r.opt.Obs, nil, func(worker, k int) error {
		return body(view, searches[worker], worker, tasks[k])
	})
	return rep.CancelErr
}

// stitchAndReconcile runs the two passes over boundary nets in canonical
// net order: stitching, at the coordinator, realizes each net's crossing
// edges against the now-complete post-pattern demand (the frozen halo
// snapshot every shard routed against), and reconciliation, a boundary
// pass, reroutes whole any stitched net still crossing an over-capacity
// edge.
func (r *runner) stitchAndReconcile(fragRoutes [][]*route.NetRoute) error {
	tr := r.opt.Obs.T()
	sp := tr.StartSpan("shard.stitch", obs.Coordinator)
	for _, n := range r.d.Nets {
		s := r.splits[n.ID]
		if s == nil {
			continue
		}
		frs := fragRoutes[n.ID]
		// The merged route re-commits every fragment edge, so the
		// fragments must come off the grid first or demand would double.
		uncommitAll(r.g, frs)
		crossings := make([]route.Crossing, len(s.Crossings))
		for i, c := range s.Crossings {
			crossings[i] = route.Crossing{A: c.A, B: c.B}
		}
		nr := route.StitchFragments(r.g, n.ID, route.PinTerminals(r.trees[n.ID]), frs, crossings)
		nr.Commit(r.g)
		r.routes[n.ID] = nr
	}
	sp.End()

	rsp := tr.StartSpan("shard.reconcile", obs.Coordinator)
	defer rsp.End()
	var tasks []sched.Task
	for _, n := range r.d.Nets {
		if r.splits[n.ID] != nil {
			tasks = append(tasks, sched.Task{ID: len(tasks), BBox: r.mazeWindow(n), Payload: n})
		}
	}
	type outcome struct {
		settled           int64
		rerouted, tripped bool
	}
	outs := make([]outcome, len(tasks))
	err := r.boundaryPass(tasks, func(view *grid.Graph, sr *maze.Search, _ int, task sched.Task) error {
		n := task.Payload.(*design.Net)
		if old := r.routes[n.ID]; old == nil || !old.HasOverflow(view) {
			return nil
		}
		st, tripped, err := r.rerouteNet(view, sr, n, task.BBox)
		outs[task.ID] = outcome{settled: st.Expansions + st.BoundCells, rerouted: err == nil && !tripped, tripped: tripped}
		return err
	})
	if err != nil {
		return fmt.Errorf("core: shard reconciliation: %w", err)
	}
	var recSettled int64
	for _, o := range outs {
		recSettled += o.settled
		if o.tripped {
			r.rep.Fault.BudgetFallbacks++
		}
		if o.rerouted {
			r.rep.BoundaryReroutes++
		}
	}
	r.rep.ReconcileTime = r.mazeTime(recSettled)
	r.rep.Times.Maze += r.rep.ReconcileTime
	return nil
}

// rrrStage runs the rip-up-and-reroute iterations with the variant's
// scheduling strategy. Each iteration scans and sorts the violating nets
// globally, then intra-leaf nets fan out over leaf groups behind leaf
// views and a cut plan's boundary nets reroute in a boundary pass after
// the barrier. full is the one-leaf plan's view, nil under a cut plan.
func (r *runner) rrrStage(full *grid.Graph) error {
	start := obs.StartStopwatch()
	tr := r.opt.Obs.T()
	stageSp := tr.StartSpan("rrr", obs.Coordinator)
	defer stageSp.End()
	r.stageStart("rrr")
	scheme := r.opt.Scheme
	if r.opt.RRRSchemeOverride != nil {
		scheme = *r.opt.RRRSchemeOverride
	}
	// History bumps go through the one-leaf view so its cache sees them; a
	// cut plan's views all postdate the bump.
	bumpG := r.g
	if full != nil {
		bumpG = full
	}

	groups, outer, inner := r.leafGroups()
	outerPool := par.NewPool(outer)
	// Only a lone slot, running on the coordinator, lends the task-graph
	// executor the observer.
	var tobs *obs.Observer
	if outer == 1 {
		tobs = r.opt.Obs
	}
	// One maze scratch per composite lane (slot*inner + inner worker),
	// reused across nets and iterations: the search hot path then
	// allocates nothing but the routes it returns. Lanes are disjoint
	// across slots, so a scratch never sees two goroutines.
	searches := make([]*maze.Search, outer*inner)
	for i := range searches {
		searches[i] = r.newSearch()
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
		sched.SortNets(violating, scheme)

		// Two task views. Execution tasks conflict on the maze window,
		// clamped to the net's leaf for an intra-leaf net (tasks with
		// disjoint windows touch disjoint grid state and may run
		// concurrently); the reported
		// scheduling models conflict on the bare bounding boxes of every
		// violating net, as the paper's task graph does. A task's ID is
		// its index in violating.
		tasks := make([]sched.Task, 0, len(violating))
		modelTasks := make([]sched.Task, len(violating))
		var boundary []sched.Task
		for ti, n := range violating {
			modelTasks[ti] = sched.Task{ID: ti, BBox: n.BBox(), Payload: n}
			if leaf := r.leafOf(n.ID); leaf >= 0 {
				tasks = append(tasks, sched.Task{ID: ti, BBox: r.mazeWindow(n).Intersect(r.shplan.Leaf(leaf)), Payload: n})
			} else {
				boundary = append(boundary, sched.Task{ID: ti, BBox: r.mazeWindow(n), Payload: n})
			}
		}
		leafTasks := r.byLeaf(tasks)
		modelGraph := sched.BuildGraph(modelTasks, r.g.W, r.g.H)

		durations := make([]time.Duration, len(violating))
		expansions := make([]int64, len(violating))
		budgetTrips := make([]bool, len(violating))

		// reroute rips up one task's net on gg within the task's window and
		// records its work. Injections fire at wrapper entry, before any
		// grid mutation, and an injected budget trip keeps the net's route
		// like a real one.
		reroute := func(gg *grid.Graph, sr *maze.Search, task sched.Task, lane int) error {
			ti, n := task.ID, task.Payload.(*design.Net)
			var msp obs.Span
			if tr.On() {
				msp = tr.StartSpan("maze:"+n.Name, lane)
			}
			defer msp.End()
			if r.fc.InjectBudget(ti, lane) {
				budgetTrips[ti] = true
				return nil
			}
			st, tripped, err := r.rerouteNet(gg, sr, n, task.BBox)
			expansions[ti] = st.Expansions
			durations[ti] = r.mazeTime(st.Expansions + st.BoundCells)
			budgetTrips[ti] = tripped
			return err
		}

		// runLeaf executes one leaf's reroutes on slot s. A cut plan's leaf
		// view is fresh each iteration, postdating the coordinator's
		// commits; windows clamp to the leaf, so leaves run unsynchronized.
		// The warm is the leaf's last single-threaded point before workers
		// mutate disjoint windows (and only re-sums lagging prefix runs).
		runLeaf := func(s, leaf int) (failed, skipped int, err error) {
			lt := leafTasks[leaf]
			view := full
			if view == nil {
				view = r.g.WindowView(r.shplan.Leaf(leaf))
			}
			view.WarmCostCache()
			work := func(worker int, task sched.Task) error {
				lane := s*inner + worker
				return reroute(view, searches[lane], task, lane)
			}
			if r.opt.Variant == CUGR {
				// Batch-barrier strategy: batches execute in order with a
				// full barrier between them; tasks inside a batch have
				// disjoint maze windows and run on the worker pool. A unit
				// that exhausts containment leaves its net on the old
				// route; an uncontained maze error aborts the iteration.
				ip := par.NewPool(inner)
				ip.SetObserver(r.opt.Obs)
				ip.SetLane(s * inner)
				ip.SetFault(r.fc)
				for _, batch := range sched.ExtractBatches(lt) {
					errs := ip.ForUnits(fault.SiteTask, len(batch), func(worker, bi int) error {
						return work(worker, batch[bi])
					})
					for _, we := range errs {
						if !we.Contained {
							return failed, skipped, we.Cause
						}
						failed++
					}
				}
				return failed, skipped, nil
			}
			lg := sched.BuildGraph(lt, r.g.W, r.g.H)
			frep := taskflow.RunWorkersFault(lg, inner, tobs, r.fc, func(worker, li int) error {
				return work(worker, lt[li])
			})
			if frep.CancelErr != nil {
				return failed, skipped, frep.CancelErr
			}
			return len(frep.Failed), len(frep.Skipped), nil
		}

		// Phase B: intra-leaf nets, leaf groups fanned over slots; a slot
		// stops at its first failed leaf.
		type leafOut struct {
			failed, skipped int
			err             error
		}
		outs := make([]leafOut, len(leafTasks))
		outerPool.For(outer, func(_, s int) {
			for gi := s; gi < len(groups); gi += outer {
				for _, leaf := range groups[gi] {
					if o := &outs[leaf]; len(leafTasks[leaf]) > 0 {
						if o.failed, o.skipped, o.err = runLeaf(s, leaf); o.err != nil {
							return
						}
					}
				}
			}
		})
		iterFailed, iterSkipped := 0, 0
		for _, o := range outs {
			if o.err != nil {
				return fmt.Errorf("core: rip-up iteration %d: %w", iter, o.err)
			}
			iterFailed += o.failed
			iterSkipped += o.skipped
		}

		// Phase A (cut plan): boundary nets in sorted order over full maze
		// windows, as a boundary pass. Each task runs under containment
		// keyed by its net's sorted index; a task that exhausts it keeps
		// its net's old route and holds back no later task.
		failed := make([]bool, len(violating))
		err := r.boundaryPass(boundary, func(view *grid.Graph, sr *maze.Search, lane int, task sched.Task) error {
			err := r.fc.Run(fault.SiteTask, task.ID, lane, func() error {
				return reroute(view, sr, task, lane)
			})
			var we *fault.WorkError
			if errors.As(err, &we) && we.Contained {
				failed[task.ID] = true
				return nil
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("core: rip-up iteration %d: %w", iter, err)
		}
		for _, f := range failed {
			if f {
				iterFailed++
			}
		}

		// Both scheduling models over the same recorded durations, on the
		// paper-faithful (bounding-box) conflict structure.
		tg := taskflow.Makespan(modelGraph, durations, r.opt.Workers)
		bb := taskflow.BatchMakespan(sched.BatchIDs(sched.ExtractBatches(modelTasks)), durations, r.opt.Workers)

		var totalExp int64
		iterBudget := 0
		for ti, e := range expansions {
			totalExp += e
			if budgetTrips[ti] {
				iterBudget++
			}
		}
		r.rep.Fault.FailedNets += iterFailed
		r.rep.Fault.SkippedNets += iterSkipped
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
			if bump == 0 {
				bump = 0.5
			}
			bumpG.BumpOverflowHistory(bump)
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
