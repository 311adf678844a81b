// The stage driver: one pattern stage and one rip-up-and-reroute stage,
// both run over a leaf plan (internal/shard). Options.Shards = 0 is the
// one-leaf plan — the whole grid, no cuts, no boundary nets. K >= 1 is the
// cut plan: the grid is bisected into leaf regions on pin density,
// intra-leaf nets route fully inside their leaf against a leaf-windowed
// cost cache, and boundary nets — nets whose Steiner tree crosses a cut —
// route whole after the leaves. Both stages have that shape: slots route
// the leaves, and after the barrier the coordinator routes the boundary
// nets over one full-grid view, the pattern stage batch by batch
// (patternBoundary), each rip-up iteration as a task graph whose conflict
// edges keep the serial order (boundaryPass). Overflow the pattern stage
// leaves on a boundary net is the rip-up stage's to repair.
//
// Execution. A leaf is the unit an executor slot claims (see slots), and a
// leaf's batches run on its slot as a chain in canonical order. Every slot
// checkpoints before each pattern batch, draws its batch and leaf spans on
// its first composite lane and lends its kernel router and rip-up task
// graph the observer. Every rip-up pass — a leaf's, of either variant, and
// a boundary pass — is a task graph on the one taskflow executor with one
// failure policy: a task that exhausts fault containment keeps its net's
// route and holds back nothing. CUGR's graph is its Algorithm-1 batch
// order, so its routes are defined by that order; its batch barrier is a
// cost the reported times model (taskflow.BatchMakespan), never one the
// host pays.
//
// Shard-count invariance. Every decision below derives from the cut tree
// (a pure function of design and margin) or happens at a coordinator
// point in canonical net order, or in a task graph equivalent to it. The
// shard count K only selects the cut plan; which slot claims a leaf, and
// beside which other leaves it runs, is left to the executor. Leaves touch
// provably disjoint grid edges (an intra-leaf route never commits an edge
// leaving its leaf, and boundary nets route only after the leaf barrier),
// so the demand trajectory each leaf observes is independent of which
// other leaves run beside it. Routed output is therefore bit-identical for
// every K >= 1 and every ExecWorkers count.
//
// Memory. The parent graph's cost cache is never warmed. Every view keeps
// the same cache — values, prefix runs and dirty flags — over its own
// window. The one-leaf plan's full-grid view lives for the whole run; under
// a cut plan a slot warms one leaf-sized view at a time, and each boundary
// pass one full-grid view that lives only for the pass. A maze scratch
// drops its view when RouteNet returns, so scratches kept across iterations
// pin no view. Peak heap (Report.PeakHeapBytes, sampled between passes)
// shrinks with the leaf size.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
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
// anything else is a boundary net, routed whole after the leaves.
// Classification runs at a coordinator point and depends only on (design,
// margin) — never on the shard count.
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
	for _, n := range r.d.Nets {
		if r.intraLeaf[n.ID] = r.shplan.LeafOf(r.trees[n.ID].BBox()); r.intraLeaf[n.ID] < 0 {
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

// slots sizes the two-level executor: outer slots claim leaves, inner
// workers execute inside one leaf, and outer*inner never exceeds the
// executor pool. Slot s's workers own composite lanes s*inner onward. A
// single slot (one leaf or one exec worker) runs inline on the
// coordinator goroutine.
func (r *runner) slots() (outer, inner int) {
	outer = min(r.shplan.NumLeaves(), r.pool.Workers())
	return outer, max(r.pool.Workers()/outer, 1)
}

// byLeaf splits tasks, each carrying its *design.Net, into one list per
// leaf of its intra-leaf nets, with each task's box clamped to the leaf,
// and the list of boundary nets; every list keeps input order. The
// one-leaf plan's list is tasks itself.
func (r *runner) byLeaf(tasks []sched.Task) (leaves [][]sched.Task, boundary []sched.Task) {
	leaves = make([][]sched.Task, r.shplan.NumLeaves())
	if len(leaves) == 1 {
		leaves[0] = tasks
		return leaves, nil
	}
	for _, t := range tasks {
		leaf := r.leafOf(t.Payload.(*design.Net).ID)
		if leaf < 0 {
			boundary = append(boundary, t)
			continue
		}
		t.BBox = t.BBox.Intersect(r.shplan.Leaf(leaf))
		leaves[leaf] = append(leaves[leaf], t)
	}
	return leaves, boundary
}

// fullView is a fresh view over the whole grid.
func (r *runner) fullView() *grid.Graph {
	return r.g.WindowView(geom.Rect{Hi: geom.Point{X: r.g.W - 1, Y: r.g.H - 1}})
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

// patternStage routes every net with the variant's pattern kernel: each
// leaf routes its intra nets batch by batch behind its view, then a cut
// plan's boundary nets route whole (patternBoundary). full is the
// one-leaf plan's view, nil under a cut plan.
func (r *runner) patternStage(full *grid.Graph) error {
	outer, inner := r.slots()
	start := obs.StartStopwatch()
	tr := r.opt.Obs.T()
	sp := tr.StartSpan("pattern", obs.Coordinator)
	defer sp.End()
	r.stageStart("pattern")

	// One task per net, in the global scheme order: a leaf's list is that
	// order filtered to its intra nets, a pure function of the cut tree,
	// and the boundary list is the rest.
	ordered := append([]*design.Net(nil), r.d.Nets...)
	sched.SortNets(ordered, r.opt.Scheme)
	tasks := make([]sched.Task, len(ordered))
	for i, n := range ordered {
		tasks[i] = sched.Task{BBox: r.trees[n.ID].BBox(), Payload: n}
	}
	leafTasks, boundary := r.byLeaf(tasks)
	leafBatches := make([][][]sched.Task, len(leafTasks))
	// firstBatch[leaf] is the ordinal of the leaf's first batch in leaf
	// order, which names its batch spans.
	firstBatch := make([]int, len(leafTasks))
	for leaf, lt := range leafTasks {
		firstBatch[leaf] = r.rep.PatternBatches
		leafBatches[leaf] = sched.ExtractBatches(lt)
		sched.ObserveBatches(r.opt.Obs.M(), leafBatches[leaf])
		r.rep.PatternBatches += len(leafBatches[leaf])
	}

	cfg := r.patternConfig()
	// One accounting slot per leaf, and the last for the boundary nets.
	accts := make([]leafAcct, len(leafTasks)+1)
	stops := make([]error, len(leafTasks))
	var cancelled atomic.Bool                // set at the first cancelled checkpoint
	solvers := make([]pattern.Solver, outer) // the CUGR path's scratch per slot
	// Slots claim leaves; a leaf's batches run in their canonical order on
	// one slot. After a cancelled checkpoint no slot starts another leaf.
	// The outer pool carries no observer (its lanes belong to the inner
	// executors).
	par.NewPool(outer).For(len(leafBatches), func(s, leaf int) {
		if len(leafBatches[leaf]) == 0 || cancelled.Load() {
			return
		}
		lane := s * inner
		view := full
		if view == nil {
			view = r.g.WindowView(r.shplan.Leaf(leaf))
		}
		// One router per leaf: the batch-ordinal base keyed by the leaf
		// keeps kernel fault-injection units disjoint across leaves and
		// invariant in the slot that claims it.
		router := r.newRouter(cfg, inner, leaf<<20, lane)
		for i, batch := range leafBatches[leaf] {
			if stops[leaf] = r.checkpoint("pattern", -1); stops[leaf] != nil {
				cancelled.Store(true)
				return
			}
			var bsp obs.Span
			if tr.On() {
				bsp = tr.StartSpan(fmt.Sprintf("pattern.batch[%d]", firstBatch[leaf]+i), lane)
			}
			r.patternBatch(view, router, &solvers[s], cfg, &accts[leaf], batch)
			bsp.End()
			r.stageBeat("pattern")
		}
	})
	stopped := cmp.Or(stops...) // the first cancelled leaf's checkpoint
	if stopped == nil && len(boundary) > 0 {
		stopped = r.patternBoundary(boundary, cfg, &accts[len(leafTasks)])
	}

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
	if stopped != nil {
		return stopped
	}
	// Kernel routers count their own batches; the CUGR path has none.
	if m := r.opt.Obs.M(); m != nil && r.opt.Variant == CUGR {
		m.Counter(obs.MPatternHybrid).Add(int64(r.rep.HybridEdges))
		m.Counter(obs.MPatternLShape).Add(int64(r.rep.TotalEdges - r.rep.HybridEdges))
	}
	r.rep.PatternQuality = r.snapshotQuality()
	r.rep.PatternScore = r.rep.PatternQuality.Score()
	r.rep.Times.PatternWall = start.Elapsed()
	r.stageDone("pattern", r.rep.Times.PatternWall, r.rep.PatternScore)
	return nil
}

// newRouter builds the variant's kernel router for one executor: workers
// solve a batch's nets, base offsets its batch ordinals (the kernel's
// fault-injection units) and lane is the executor's first lane. CUGR has
// no kernel and gets nil.
func (r *runner) newRouter(cfg pattern.Config, workers, base, lane int) *patterngpu.Router {
	if r.opt.Variant == CUGR {
		return nil
	}
	router := patterngpu.New(r.opt.Device, cfg)
	router.Workers = workers
	router.Obs = r.opt.Obs
	router.Fault = r.fc
	router.CPU = r.opt.CPU
	router.SetBatchBase(base)
	router.SetLane(lane)
	return router
}

// patternBoundary routes a cut plan's boundary nets after the leaf
// barrier, whole and in scheme order: sched.ExtractBatches over their tree
// bounding boxes, each batch through patternBatch on one full-grid view
// built here and dropped with the pass. The kernel router fans out over the
// whole executor pool, and its batch base NumLeaves<<20 is disjoint from
// every leaf's. Every batch is preceded by a checkpoint, and its
// pattern.batch ordinal continues after the leaves'; the first cancelled
// checkpoint is returned.
func (r *runner) patternBoundary(tasks []sched.Task, cfg pattern.Config, a *leafAcct) error {
	tr := r.opt.Obs.T()
	sp := tr.StartSpan("pattern.boundary", obs.Coordinator)
	defer sp.End()
	batches := sched.ExtractBatches(tasks)
	sched.ObserveBatches(r.opt.Obs.M(), batches)
	first := r.rep.PatternBatches
	r.rep.PatternBatches += len(batches)
	view := r.fullView()
	router := r.newRouter(cfg, r.pool.Workers(), r.shplan.NumLeaves()<<20, 0)
	var solver pattern.Solver
	for i, batch := range batches {
		if err := r.checkpoint("pattern", -1); err != nil {
			return err
		}
		var bsp obs.Span
		if tr.On() {
			bsp = tr.StartSpan(fmt.Sprintf("pattern.batch[%d]", first+i), 0)
		}
		r.patternBatch(view, router, &solver, cfg, a, batch)
		bsp.End()
		r.stageBeat("pattern")
	}
	return nil
}

// patternBatch routes one conflict-free batch, one tree per task, and
// commits it in batch order through view. The GPU variants solve it as one
// kernel (Fig. 7) first; CUGR (router == nil) solves on solver and commits
// net by net.
func (r *runner) patternBatch(view *grid.Graph, router *patterngpu.Router, solver *pattern.Solver, cfg pattern.Config, a *leafAcct, batch []sched.Task) {
	var kernel []pattern.Result
	if router != nil {
		trees := make([]*stt.Tree, len(batch))
		for i, task := range batch {
			trees[i] = r.trees[task.Payload.(*design.Net).ID]
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
	for i, task := range batch {
		n := task.Payload.(*design.Net)
		var res pattern.Result
		if router != nil {
			res = kernel[i]
		} else {
			res = solver.SolveCPU(view, r.trees[n.ID], cfg)
			a.seqOps += res.Ops.Total()
		}
		a.totalEdges += res.Edges
		a.hybridEdges += res.HybridEdges
		res.Route.Commit(view)
		r.routes[n.ID] = res.Route
	}
}

// boundaryPassProbe, when set (by tests only), sees the runner at the start
// and the end of every boundary pass.
var boundaryPassProbe func(r *runner)

// ripupFunc runs one task graph of reroutes through view on one executor:
// worker w keeps searches[w] and draws on lane lane0+w.
type ripupFunc func(g *sched.Graph, view *grid.Graph, searches []*maze.Search, lane0 int) error

// boundaryPass reroutes a rip-up iteration's boundary nets as a task graph
// on the executor pool. The tasks are listed in the pass's serial order,
// and task.BBox is the net's maze window: a boundary net's route lies
// inside that window (TestBoundaryRoutesStayInWindow), so a task's rip-up,
// search and commit touch only edges inside it. sched.OrderGraph points
// every conflict edge from the earlier task to the later one, which makes
// any schedule of the graph commit exactly what the serial loop did. The
// pass routes through one full-grid view built and warmed here, at the
// coordinator, and dropped with the pass: the next iteration's leaf views
// write through to their own caches, never to this one.
func (r *runner) boundaryPass(tasks []sched.Task, ripup ripupFunc) error {
	if boundaryPassProbe != nil {
		boundaryPassProbe(r)
		defer boundaryPassProbe(r)
	}
	if len(tasks) == 0 {
		return nil
	}
	sp := r.opt.Obs.T().StartSpan("rrr.boundary", obs.Coordinator)
	defer sp.End()
	view := r.fullView()
	view.WarmCostCache()
	// The scratches grow to the largest boundary windows, so they live for
	// one pass only.
	searches := make([]*maze.Search, r.pool.Workers())
	for i := range searches {
		searches[i] = r.newSearch()
	}
	return ripup(sched.OrderGraph(tasks, r.g.W, r.g.H), view, searches, 0)
}

// rrrStage runs the rip-up-and-reroute iterations. Each iteration scans
// and sorts the violating nets globally, then slots claim leaves and
// reroute their intra-leaf nets behind leaf views, and a cut plan's
// boundary nets reroute in a boundary pass after the barrier. Every pass
// is a task graph on one executor with one failure policy (ripup). The
// variants differ in the leaf's graph only: FastGR runs the paper's task
// graph (sched.BuildGraph), CUGR its batch order — Algorithm-1 batches
// listed one after another as an order graph, which commits exactly what
// the batch-barrier loop did, since conflicting tasks keep batch order and
// the rest touch disjoint windows. The barrier's cost is modeled
// (taskflow.BatchMakespan), never executed. full is the one-leaf plan's
// view, nil under a cut plan.
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

	outer, inner := r.slots()
	slotPool := par.NewPool(outer)
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
		tasks := make([]sched.Task, len(violating))
		modelTasks := make([]sched.Task, len(violating))
		for ti, n := range violating {
			tasks[ti] = sched.Task{ID: ti, BBox: r.mazeWindow(n), Payload: n}
			modelTasks[ti] = sched.Task{ID: ti, BBox: n.BBox(), Payload: n}
		}
		leafTasks, boundary := r.byLeaf(tasks)
		modelGraph := sched.BuildGraph(modelTasks, r.g.W, r.g.H)

		durations := make([]time.Duration, len(violating))
		expansions := make([]int64, len(violating))
		budgetTrips := make([]bool, len(violating))
		failed := make([]bool, len(violating))
		moved := make([]bool, len(violating)) // the reroute changed its net's edge list

		// ripup is every pass's executor and failure policy. Each task
		// rips its net up within its window under containment keyed by
		// its ID; a task that exhausts containment keeps its net's old
		// route, is marked failed and holds back nothing, and only an
		// uncontained error cancels the graph. Injections fire at wrapper
		// entry, before any grid mutation, and an injected budget trip
		// keeps the net's route like a real one.
		ripup := func(g *sched.Graph, view *grid.Graph, searches []*maze.Search, lane0 int) error {
			return taskflow.RunWorkersFault(g, len(searches), r.opt.Obs, func(worker, k int) error {
				task, lane := g.Tasks[k], lane0+worker
				ti, n := task.ID, task.Payload.(*design.Net)
				err := r.fc.Run(fault.SiteTask, ti, lane, func() error {
					var msp obs.Span
					if tr.On() {
						msp = tr.StartSpan("maze:"+n.Name, lane)
					}
					defer msp.End()
					if r.fc.InjectBudget(ti, lane) {
						budgetTrips[ti] = true
						return nil
					}
					old := r.routes[n.ID]
					st, tripped, err := r.rerouteNet(view, searches[worker], n, task.BBox)
					moved[ti] = !slices.Equal(old.Edges(), r.routes[n.ID].Edges())
					expansions[ti] = st.Expansions
					durations[ti] = r.mazeTime(st.Expansions + st.BoundCells)
					budgetTrips[ti] = tripped
					return err
				})
				var we *fault.WorkError
				if errors.As(err, &we) && we.Contained {
					failed[ti] = true
					return nil
				}
				return err
			})
		}

		// Intra-leaf nets first, each leaf claimed by one slot. A cut
		// plan's leaf view is fresh each iteration, postdating the
		// coordinator's commits; windows clamp to the leaf, so leaves run
		// unsynchronized. The warm is the leaf's last single-threaded
		// point before workers mutate disjoint windows (and only re-sums
		// lagging prefix runs).
		errs := make([]error, len(leafTasks))
		slotPool.For(len(leafTasks), func(s, leaf int) {
			lt := leafTasks[leaf]
			if len(lt) == 0 {
				return
			}
			var lsp obs.Span
			if tr.On() {
				lsp = tr.StartSpan(fmt.Sprintf("rrr.leaf[%d]", leaf), s*inner)
			}
			defer lsp.End()
			view := full
			if view == nil {
				view = r.g.WindowView(r.shplan.Leaf(leaf))
			}
			view.WarmCostCache()
			var lg *sched.Graph
			if r.opt.Variant == CUGR {
				lg = sched.OrderGraph(slices.Concat(sched.ExtractBatches(lt)...), r.g.W, r.g.H)
			} else {
				lg = sched.BuildGraph(lt, r.g.W, r.g.H)
			}
			errs[leaf] = ripup(lg, view, searches[s*inner:(s+1)*inner], s*inner)
		})
		// Then a cut plan's boundary nets, in sorted order over full maze
		// windows, as a boundary pass.
		err := cmp.Or(errs...)
		if err == nil {
			err = r.boundaryPass(boundary, ripup)
		}
		if err != nil {
			return fmt.Errorf("core: rip-up iteration %d: %w", iter, err)
		}
		for _, t := range boundary {
			if !failed[t.ID] && !budgetTrips[t.ID] {
				r.rep.BoundaryReroutes++
			}
		}

		// Both scheduling models over the same recorded durations, on the
		// paper-faithful (bounding-box) conflict structure.
		tg := taskflow.Makespan(modelGraph, durations, r.opt.Workers)
		bb := taskflow.BatchMakespan(sched.BatchIDs(sched.ExtractBatches(modelTasks)), durations, r.opt.Workers)

		var totalExp int64
		iterFailed, iterBudget := 0, 0
		for ti, e := range expansions {
			totalExp += e
			if failed[ti] {
				iterFailed++
			}
			if budgetTrips[ti] {
				iterBudget++
			}
		}
		r.rep.Fault.FailedNets += iterFailed
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
		// A fixed point: every net kept its edge list (a budget trip or a
		// contained failure keeps the old route), so grid and routes are
		// as the iteration found them. Without history the next iteration
		// would rip up the same nets and draw the same injections — keyed
		// by site, task ID and attempt, never by iteration — and repeat
		// this one exactly.
		if !r.opt.HistoryRRR && !slices.Contains(moved, true) {
			break
		}
	}
	r.rep.Times.MazeWall = start.Elapsed()
	score := r.rep.PatternScore
	if n := len(r.rep.RRR); n > 0 {
		score = r.rep.RRR[n-1].Score
	}
	r.stageDone("rrr", r.rep.Times.MazeWall, score)
	return nil
}
