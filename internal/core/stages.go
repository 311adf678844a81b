// The stage driver: one pattern stage and one rip-up-and-reroute stage,
// both run over a leaf plan (internal/shard). Options.Shards = 0 is the
// one-leaf plan — the whole grid, no cuts, no boundary nets. K >= 1 is the
// cut plan: the grid is bisected into leaf regions on pin density,
// intra-leaf nets route fully inside their leaf against a leaf-windowed
// cost cache, and boundary nets — nets whose Steiner tree crosses a cut —
// route whole after the leaves over one full-grid view. Both stages have
// that shape: the pattern stage routes leaf after leaf and then the
// boundary nets, batch by batch (patternPass); each rip-up iteration
// reroutes every leaf's nets as one task graph (leafPass) and then the
// boundary nets as another, whose conflict edges keep the serial order
// (boundaryPass). Overflow the pattern stage leaves on a boundary net is
// the rip-up stage's to repair.
//
// Execution. There is one executor, internal/taskflow, and one client of
// it: the coordinator runs every pass in turn, and workers fan out only
// inside a pass. A pattern batch fans its kernel's net solves out over
// every ExecWorkers worker (taskflow.For); a rip-up pass runs its task
// graph on all of them (taskflow.RunWorkersFault) with one failure policy:
// a task that exhausts fault containment keeps its net's route and holds
// back nothing. CUGR's graph is its Algorithm-1 batch order, so its routes
// are defined by that order; its batch barrier is a cost the reported
// times model (taskflow.BatchMakespan), never one the host pays. The
// coordinator's spans — stages, passes, batches, iterations, kernels — sit
// on the stages lane; worker w's spans (par.chunk, maze:<net>) and the
// fault markers of the units it runs sit on lane w. Checkpoints are polled
// on the coordinator only: before every pattern batch and at the top of
// every rip-up iteration.
//
// Shard-count invariance. Every decision below derives from the cut tree
// (a pure function of design and margin) or happens at a coordinator
// point in canonical net order, or in a task graph equivalent to it. The
// shard count K only selects the cut plan. Leaves touch provably disjoint
// grid edges (an intra-leaf route never commits an edge leaving its leaf,
// and boundary nets route only after the leaves), and the leaf-clamped
// rip-up windows of two leaves never overlap, so the demand trajectory
// each leaf observes is independent of which other leaves run beside it.
// Routed output is therefore bit-identical for every K >= 1 and every
// ExecWorkers count.
//
// Memory. The parent graph's cost cache is never warmed. Every view keeps
// the same cache — values, prefix runs and dirty flags — over its own
// window. The one-leaf plan's full-grid view lives for the whole run.
// Under a cut plan the pattern stage keeps one view alive at a time: a
// leaf's, then the boundary nets' full-grid one. A rip-up iteration's leaf
// pass holds every non-empty leaf's view at once; leaves tile the grid, so
// together they come to about one full-grid cache, the size of the
// full-grid view the boundary pass right after it holds, and they are
// dropped before that pass builds its own. A maze scratch drops its view
// when RouteNet returns, so scratches kept across iterations pin no view.
// A rip-up pass's search records are either one frame shared by its lanes
// or each lane's own, whichever layout is smaller (useFrame), never both.
// Peak heap (Report.PeakHeapBytes) is sampled between passes.
package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"fastgr/internal/design"
	"fastgr/internal/fault"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/maze"
	"fastgr/internal/obs"
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

// workers is the executor's worker count: ExecWorkers, at least one.
func (r *runner) workers() int { return max(r.opt.ExecWorkers, 1) }

// split separates tasks, each carrying its *design.Net, into the intra-leaf
// tasks, each box clamped to its net's leaf, and the boundary tasks; both
// lists keep input order. The one-leaf plan's intra list is tasks itself.
func (r *runner) split(tasks []sched.Task) (intra, boundary []sched.Task) {
	if r.shplan.NumLeaves() == 1 {
		return tasks, nil
	}
	for _, t := range tasks {
		leaf := r.leafOf(t.Payload.(*design.Net).ID)
		if leaf < 0 {
			boundary = append(boundary, t)
			continue
		}
		t.BBox = t.BBox.Intersect(r.shplan.Leaf(leaf))
		intra = append(intra, t)
	}
	return intra, boundary
}

// fullView is a fresh view over the whole grid.
func (r *runner) fullView() *grid.Graph {
	return r.g.WindowView(geom.Rect{Hi: geom.Point{X: r.g.W - 1, Y: r.g.H - 1}})
}

// mazeWindow is a net's rip-up search window: its bounding box inflated
// by MazeMargin, clamped to the grid.
func (r *runner) mazeWindow(n *design.Net) geom.Rect {
	return n.BBox().Inflate(r.opt.MazeMargin).ClampTo(r.g.W, r.g.H)
}

// useFrame is the search-record layout rule. A rip-up pass's lanes share
// one maze.Frame over the union of its task windows iff at least two lanes
// run and that frame holds fewer nodes than the lanes' own records would
// at the pass's largest window, one such array a lane (every array spans
// all layers, so cells compare as nodes do). Otherwise each lane keeps
// records of its own. It picks the smaller layout: a pass of small,
// scattered windows — a cut plan's leaf-clamped ones, say — keeps its
// lanes. union and largest are cell counts.
func useFrame(workers, union, largest int) bool {
	return workers >= 2 && union < workers*largest
}

// recordsProbe, when set (by tests only), sees every rip-up pass's layout
// choice: the pass's span name and whether its lanes share a frame.
var recordsProbe func(pass string, frame bool)

// bindRecords applies the layout rule to a rip-up pass's tasks (at least
// one) before any lane runs: either frame is bound over the union of the
// task windows and every lane searches in it, or frame drops its records
// and every lane keeps its own. Concurrent tasks have disjoint windows —
// the pass's graph joins every overlapping pair — so lanes sharing the
// frame write disjoint records. The frame's epoch budget is a search pass
// per net terminal and containment attempt, which bounds what the pass can
// draw; a pass beyond what one binding can promise keeps its lanes.
func (r *runner) bindRecords(pass string, tasks []sched.Task, searches []*maze.Search, frame *maze.Frame) {
	union, largest, draws := tasks[0].BBox, 0, int64(0)
	for _, t := range tasks {
		union = union.Union(t.BBox)
		largest = max(largest, t.BBox.Area())
		draws += int64(len(t.Payload.(*design.Net).Pins))
	}
	draws *= int64(r.fc.MaxAttempts())
	shared := useFrame(len(searches), union.Area(), largest) && draws <= maze.MaxFrameDraws
	if recordsProbe != nil {
		recordsProbe(pass, shared)
	}
	if shared {
		frame.Bind(union, r.g.L, draws)
	} else {
		frame.Release()
		frame = nil
	}
	for _, s := range searches {
		s.UseFrame(frame)
	}
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

// patternStage routes every net with the variant's pattern kernel: leaf
// after leaf, each leaf's intra nets behind its own view, and then a cut
// plan's boundary nets whole over one full-grid view. full is the one-leaf
// plan's view, nil under a cut plan.
func (r *runner) patternStage(full *grid.Graph) error {
	start := obs.StartStopwatch()
	tr := r.opt.Obs.T()
	sp := tr.StartSpan("pattern", obs.Coordinator)
	defer sp.End()
	r.stageStart("pattern")

	// One task per net, in the global scheme order: byLeaf[1+leaf] is that
	// order filtered to the leaf's intra nets, a pure function of the cut
	// tree, and byLeaf[0] lists the boundary nets.
	ordered := append([]*design.Net(nil), r.d.Nets...)
	sched.SortNets(ordered, r.opt.Scheme)
	byLeaf := make([][]sched.Task, 1+r.shplan.NumLeaves())
	for _, n := range ordered {
		i := 1 + r.leafOf(n.ID)
		byLeaf[i] = append(byLeaf[i], sched.Task{BBox: r.trees[n.ID].BBox(), Payload: n})
	}

	cfg := r.patternConfig()
	var stopped error // the first cancelled checkpoint
	// A leaf's view lives for the leaf only. Its router's batch base,
	// keyed by the leaf, keeps kernel fault-injection units disjoint across
	// leaves; the boundary nets' base NumLeaves<<20 follows them all.
	for leaf, lt := range byLeaf[1:] {
		if len(lt) == 0 {
			continue
		}
		view := full
		if view == nil {
			view = r.g.WindowView(r.shplan.Leaf(leaf))
		}
		if stopped = r.patternPass(view, lt, leaf<<20, cfg); stopped != nil {
			break
		}
	}
	if stopped == nil && len(byLeaf[0]) > 0 {
		bsp := tr.StartSpan("pattern.boundary", obs.Coordinator)
		stopped = r.patternPass(r.fullView(), byLeaf[0], r.shplan.NumLeaves()<<20, cfg)
		bsp.End()
	}

	r.rep.PatternSeqTime = r.opt.CPU.SequentialTime(r.rep.PatternSeqOps)
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

// newRouter builds the variant's kernel router: its solves fan out over
// the whole executor, and base offsets its batch ordinals (the kernel's
// fault-injection units). CUGR has no kernel and gets nil.
func (r *runner) newRouter(cfg pattern.Config, base int) *patterngpu.Router {
	if r.opt.Variant == CUGR {
		return nil
	}
	router := patterngpu.New(r.opt.Device, cfg)
	router.Workers = r.workers()
	router.Obs = r.opt.Obs
	router.Fault = r.fc
	router.CPU = r.opt.CPU
	router.SetBatchBase(base)
	return router
}

// patternPass routes tasks — a leaf's intra nets or a cut plan's boundary
// nets — in scheme order through view: sched.ExtractBatches over their
// tree bounding boxes, then each batch through patternBatch with one
// kernel router whose batch ordinals start at base. Every batch is
// preceded by a checkpoint, and its pattern.batch ordinal continues from
// the previous pass's; the first cancelled checkpoint is returned.
func (r *runner) patternPass(view *grid.Graph, tasks []sched.Task, base int, cfg pattern.Config) error {
	tr := r.opt.Obs.T()
	batches := sched.ExtractBatches(tasks)
	sched.ObserveBatches(r.opt.Obs.M(), batches)
	first := r.rep.PatternBatches
	r.rep.PatternBatches += len(batches)
	router := r.newRouter(cfg, base)
	var solver pattern.Solver
	for i, batch := range batches {
		if err := r.checkpoint("pattern", -1); err != nil {
			return err
		}
		var bsp obs.Span
		if tr.On() {
			bsp = tr.StartSpan(fmt.Sprintf("pattern.batch[%d]", first+i), obs.Coordinator)
		}
		r.patternBatch(view, router, &solver, cfg, batch)
		bsp.End()
		r.stageBeat("pattern")
	}
	return nil
}

// patternBatch routes one conflict-free batch, one tree per task, and
// commits it in batch order through view. The GPU variants solve it as one
// kernel (Fig. 7) first; CUGR (router == nil) solves on solver and commits
// net by net.
func (r *runner) patternBatch(view *grid.Graph, router *patterngpu.Router, solver *pattern.Solver, cfg pattern.Config, batch []sched.Task) {
	var kernel []pattern.Result
	if router != nil {
		trees := make([]*stt.Tree, len(batch))
		for i, task := range batch {
			trees[i] = r.trees[task.Payload.(*design.Net).ID]
		}
		br := router.RouteBatch(view, trees)
		kernel = br.Results
		r.rep.PatternSeqOps += br.SeqOps
		r.rep.Times.Pattern += br.KernelTime
		if br.CPUFallback {
			r.rep.Fault.KernelFallbacks++
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
			r.rep.PatternSeqOps += res.Ops.Total()
		}
		r.rep.TotalEdges += res.Edges
		r.rep.HybridEdges += res.HybridEdges
		res.Route.Commit(view)
		r.routes[n.ID] = res.Route
	}
}

// ripupFunc runs one task graph of reroutes on the executor: worker w
// keeps searches[w], bound to the pass's records (bindRecords), and a task
// routes through views[leafOf(net)+1] — its leaf's view, or views[0] for a
// boundary net.
type ripupFunc func(g *sched.Graph, searches []*maze.Search, views []*grid.Graph) error

// ripupGraph is the execution graph of a rip-up pass over tasks listed in
// the pass's sorted order. FastGR runs the paper's task graph
// (sched.BuildGraph); CUGR its batch order — Algorithm-1 batches listed
// one after another as an order graph, which commits exactly what the
// batch-barrier loop did, since conflicting tasks keep batch order and the
// rest touch disjoint windows.
func (r *runner) ripupGraph(tasks []sched.Task) *sched.Graph {
	if r.opt.Variant == CUGR {
		return sched.OrderGraph(slices.Concat(sched.ExtractBatches(tasks)...), r.g.W, r.g.H)
	}
	return sched.BuildGraph(tasks, r.g.W, r.g.H)
}

// leafPass reroutes a rip-up iteration's intra-leaf nets as one task graph
// over every leaf (ripupGraph). A task's box is its maze window clamped to
// its leaf, and leaves are disjoint, so no conflict edge joins two leaves
// and both the root batch and the batch order of a leaf's tasks depend on
// that leaf's tasks alone: the graph is the disjoint union of the leaves'
// own graphs. Each task routes through its leaf's view. The coordinator
// builds and warms one view per non-empty leaf here — fresh each
// iteration, postdating the last pass's commits — and the views drop with
// the pass; the one-leaf plan routes through full. The lanes' records —
// frame or their own — outlive the pass, so the iteration's heap sample
// sees them.
func (r *runner) leafPass(tasks []sched.Task, full *grid.Graph, searches []*maze.Search, frame *maze.Frame, ripup ripupFunc) error {
	if len(tasks) == 0 {
		return nil
	}
	sp := r.opt.Obs.T().StartSpan("rrr.leaves", obs.Coordinator)
	defer sp.End()
	r.bindRecords("rrr.leaves", tasks, searches, frame)
	views := make([]*grid.Graph, 1+r.shplan.NumLeaves())
	for _, t := range tasks {
		leaf := r.leafOf(t.Payload.(*design.Net).ID)
		if views[1+leaf] != nil {
			continue
		}
		views[1+leaf] = full
		if full == nil {
			views[1+leaf] = r.g.WindowView(r.shplan.Leaf(leaf))
		}
		views[1+leaf].WarmCostCache()
	}
	return ripup(r.ripupGraph(tasks), searches, views)
}

// boundaryPassProbe, when set (by tests only), sees the runner at the start
// and the end of every boundary pass.
var boundaryPassProbe func(r *runner)

// boundaryPass reroutes a rip-up iteration's boundary nets as a task graph
// on the executor. The tasks are listed in the pass's serial order, and
// task.BBox is the net's maze window: a boundary net's route lies inside
// that window (TestBoundaryRoutesStayInWindow), so a task's rip-up, search
// and commit touch only edges inside it. sched.OrderGraph points every
// conflict edge from the earlier task to the later one, which makes any
// schedule of the graph commit exactly what the serial loop did. The pass
// routes through one full-grid view built and warmed here, at the
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
	// The scratches and their records grow to the largest boundary windows,
	// so they live for one pass only.
	searches := make([]*maze.Search, r.workers())
	for i := range searches {
		searches[i] = r.newSearch()
	}
	r.bindRecords("rrr.boundary", tasks, searches, new(maze.Frame))
	return ripup(sched.OrderGraph(tasks, r.g.W, r.g.H), searches, []*grid.Graph{view})
}

// rrrStage runs the rip-up-and-reroute iterations. Each iteration scans
// and sorts the violating nets globally, reroutes the intra-leaf ones in a
// leaf pass and then a cut plan's boundary nets in a boundary pass. Every
// pass is a task graph on the one executor with one failure policy
// (ripup). The variants differ in the leaf pass's graph only (ripupGraph);
// CUGR's barrier cost is modeled (taskflow.BatchMakespan), never executed.
// full is the one-leaf plan's view, nil under a cut plan.
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

	// One maze scratch per executor worker, reused across nets and
	// iterations, and the leaf passes' shared frame, reused the same way
	// whenever the layout rule picks it: the search hot path then allocates
	// nothing but the routes it returns.
	searches := make([]*maze.Search, r.workers())
	for i := range searches {
		searches[i] = r.newSearch()
	}
	frame := new(maze.Frame)
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
		// concurrently); the reported scheduling models conflict on the
		// bare bounding boxes of every violating net, as the paper's task
		// graph does. A task's ID is its index in violating.
		tasks := make([]sched.Task, len(violating))
		modelTasks := make([]sched.Task, len(violating))
		for ti, n := range violating {
			tasks[ti] = sched.Task{ID: ti, BBox: r.mazeWindow(n), Payload: n}
			modelTasks[ti] = sched.Task{ID: ti, BBox: n.BBox(), Payload: n}
		}
		intra, boundary := r.split(tasks)
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
		// keeps the net's route like a real one. The task's maze span
		// encloses every attempt and its fault markers.
		ripup := func(g *sched.Graph, searches []*maze.Search, views []*grid.Graph) error {
			return taskflow.RunWorkersFault(g, len(searches), r.opt.Obs, func(worker, k int) error {
				task := g.Tasks[k]
				ti, n := task.ID, task.Payload.(*design.Net)
				var msp obs.Span
				if tr.On() {
					msp = tr.StartSpan("maze:"+n.Name, worker)
				}
				defer msp.End()
				err := r.fc.Run(fault.SiteTask, ti, worker, func() error {
					if r.fc.InjectBudget(ti, worker) {
						budgetTrips[ti] = true
						return nil
					}
					old := r.routes[n.ID]
					st, tripped, err := r.rerouteNet(views[1+r.leafOf(n.ID)], searches[worker], n, task.BBox)
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

		// Intra-leaf nets first, then a cut plan's boundary nets in sorted
		// order over full maze windows.
		err := r.leafPass(intra, full, searches, frame, ripup)
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
