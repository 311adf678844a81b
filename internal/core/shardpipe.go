// Sharded spatial pipeline (Options.Shards >= 1): the grid is bisected
// into leaf regions on pin density (internal/shard), intra-leaf nets route
// fully inside their leaf against a leaf-windowed cost cache, and nets
// straddling a cut are split into per-leaf fragments routed against the
// frozen halo state, then stitched and reconciled at sequential
// coordinator points.
//
// Shard-count invariance. Every decision below derives from the cut tree
// (a pure function of design and margin) or happens at a coordinator
// point in canonical net order. The shard count K only picks how leaves
// are grouped onto executor slots; leaves touch provably disjoint grid
// edges (an intra-leaf route never commits an edge leaving its leaf, and
// crossing edges are committed only at the stitch point), so the demand
// trajectory each leaf observes is independent of which other leaves run
// beside it. Routed output is therefore bit-identical for every K >= 1
// and every ExecWorkers count.
//
// Memory. The monolithic pipeline materializes a full-grid cost cache
// (values + prefix sums); the sharded one never warms the parent graph's
// cache — each slot warms at most one leaf-sized window view at a time,
// and coordinator passes (stitching, reconciliation, boundary reroutes)
// read the direct cost formula. Peak heap shrinks with the leaf size,
// which is what Report.PeakHeapBytes measures.
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

// shardSetup builds the cut plan and classifies every net: a net whose
// Steiner tree fits inside one leaf is intra (routed wholly by that
// leaf); anything else is split into per-leaf fragments plus the
// crossing edges the stitcher will realize. Classification runs at a
// coordinator point and depends only on (design, margin) — never on the
// shard count.
func (r *runner) shardSetup() {
	sp := r.opt.Obs.T().StartSpan("shard.plan", obs.Coordinator)
	defer sp.End()
	r.shplan = shard.BuildPlan(r.d, r.opt.MazeMargin)
	r.rep.Shards = r.opt.Shards
	r.rep.ShardLeaves = r.shplan.NumLeaves()
	r.intraLeaf = make([]int, len(r.trees))
	r.splits = make([]*shard.Split, len(r.trees))
	for i := range r.intraLeaf {
		r.intraLeaf[i] = -1
	}
	for _, n := range r.d.Nets {
		t := r.trees[n.ID]
		if leaf := r.shplan.LeafOf(t.BBox()); leaf >= 0 {
			r.intraLeaf[n.ID] = leaf
		} else {
			r.splits[n.ID] = shard.SplitTree(r.shplan, t)
			r.rep.BoundaryNets++
		}
	}
}

// patItem is one unit of sharded pattern work: an intra net's whole tree,
// or one leaf's fragment of a boundary net.
type patItem struct {
	net   *design.Net
	trees []*stt.Tree
	frag  int // index into splits[net.ID].Fragments; -1 for an intra net
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

// shardGrouping sizes the two-level executor: outer slots iterate leaf
// groups, inner workers execute inside one leaf. outer*inner never
// exceeds the executor pool, so sharding cannot oversubscribe the host.
func (r *runner) shardGrouping() (groups [][]int, outer, inner int) {
	groups = r.shplan.Groups(r.opt.Shards)
	outer = len(groups)
	if w := r.pool.Workers(); outer > w {
		outer = w
	}
	inner = r.pool.Workers() / outer
	if inner < 1 {
		inner = 1
	}
	return groups, outer, inner
}

// shardPatternStage is the sharded counterpart of patternStage: per-leaf
// batched pattern routing (intra nets and boundary-net fragments) behind
// leaf window views, then a sequential stitch of every boundary net's
// fragments across the cuts, then a reconciliation pass rerouting the
// stitched nets that overflow.
func (r *runner) shardPatternStage() error {
	if err := r.checkpoint("pattern", -1); err != nil {
		return err
	}
	start := obs.StartStopwatch()
	tr := r.opt.Obs.T()
	sp := tr.StartSpan("pattern", obs.Coordinator)
	defer sp.End()
	r.stageStart("pattern")

	// Assign work to leaves: one item per intra net, one per (boundary
	// net, leaf) fragment. The per-leaf net order is the global scheme
	// applied to the parent nets — a pure function of the leaf's
	// membership, which the cut tree fixes independently of K.
	numLeaves := r.shplan.NumLeaves()
	leafNets := make([][]*design.Net, numLeaves)
	leafItem := make([]map[int]*patItem, numLeaves)
	for i := range leafItem {
		leafItem[i] = make(map[int]*patItem) // keyed lookups only, never ranged
	}
	fragRoutes := make([][]*route.NetRoute, len(r.routes))
	add := func(leaf int, it *patItem) {
		leafNets[leaf] = append(leafNets[leaf], it.net)
		leafItem[leaf][it.net.ID] = it
	}
	for _, n := range r.d.Nets {
		if leaf := r.intraLeaf[n.ID]; leaf >= 0 {
			add(leaf, &patItem{net: n, trees: []*stt.Tree{r.trees[n.ID]}, frag: -1})
			continue
		}
		s := r.splits[n.ID]
		fragRoutes[n.ID] = make([]*route.NetRoute, len(s.Fragments))
		for fi := range s.Fragments {
			f := &s.Fragments[fi]
			add(f.Leaf, &patItem{net: n, trees: f.Trees, frag: fi})
		}
	}

	leafBatches := make([][][]sched.Task, numLeaves)
	for leaf := 0; leaf < numLeaves; leaf++ {
		sched.SortNets(leafNets[leaf], r.opt.Scheme)
		tasks := make([]sched.Task, len(leafNets[leaf]))
		for i, n := range leafNets[leaf] {
			it := leafItem[leaf][n.ID]
			tasks[i] = sched.Task{ID: i, BBox: itemBBox(it.trees), Payload: it}
		}
		leafBatches[leaf] = sched.ExtractBatches(tasks)
		sched.ObserveBatches(r.opt.Obs.M(), leafBatches[leaf])
		r.rep.PatternBatches += len(leafBatches[leaf])
	}

	cfg := r.patternConfig()
	groups, outer, inner := r.shardGrouping()
	accts := make([]leafAcct, numLeaves)

	// commitItem merges an item's per-tree results into one route and
	// commits it through the leaf view (demand is shared with the parent;
	// the mutation is written through to the view's cache).
	commitItem := func(view *grid.Graph, a *leafAcct, it *patItem, results []pattern.Result) {
		nr := &route.NetRoute{NetID: it.net.ID}
		for _, res := range results {
			nr.Paths = append(nr.Paths, res.Route.Paths...)
			a.totalEdges += res.Edges
			a.hybridEdges += res.HybridEdges
		}
		nr.Commit(view)
		if it.frag < 0 {
			r.routes[it.net.ID] = nr
		} else {
			fragRoutes[it.net.ID][it.frag] = nr
		}
	}

	// Slot fan-out: slot s owns groups s, s+outer, ... — leaves never
	// migrate between goroutines mid-stage, and a leaf's batches run in
	// their canonical order. The outer pool carries no observer (its
	// lanes belong to the inner executors).
	par.NewPool(outer).For(outer, func(_, s int) {
		for gi := s; gi < len(groups); gi += outer {
			for _, leaf := range groups[gi] {
				if len(leafBatches[leaf]) == 0 {
					continue
				}
				view := r.g.WindowView(r.shplan.Leaf(leaf))
				a := &accts[leaf]
				if r.opt.Variant == CUGR {
					for _, batch := range leafBatches[leaf] {
						view.WarmCostCache()
						for _, task := range batch {
							it := task.Payload.(*patItem)
							results := make([]pattern.Result, len(it.trees))
							for i, t := range it.trees {
								results[i] = pattern.SolveCPU(view, t, cfg)
								a.seqOps += results[i].Ops.Total()
							}
							commitItem(view, a, it, results)
						}
					}
					continue
				}
				// One router per leaf: the batch-ordinal base keyed by
				// the leaf keeps kernel fault-injection units disjoint
				// across leaves and invariant in K. No observer — batch
				// spans would collide on the coordinator lane.
				router := patterngpu.New(r.opt.Device, cfg)
				router.Workers = inner
				router.Fault = r.fc
				router.CPU = r.opt.CPU
				router.SetBatchBase(leaf << 20)
				for _, batch := range leafBatches[leaf] {
					trees := make([]*stt.Tree, 0, len(batch))
					for _, task := range batch {
						trees = append(trees, task.Payload.(*patItem).trees...)
					}
					br := router.RouteBatch(view, trees)
					if br.CPUFallback {
						a.fallbacks++
					}
					pos := 0
					for _, task := range batch {
						it := task.Payload.(*patItem)
						commitItem(view, a, it, br.Results[pos:pos+len(it.trees)])
						pos += len(it.trees)
					}
					a.seqOps += br.SeqOps
					a.kernelTime += br.KernelTime
				}
			}
			// One liveness beat per leaf group; Health is mutex-guarded,
			// so worker-side beats are safe and order-independent.
			r.stageBeat("pattern")
		}
	})

	var kernelTime time.Duration
	for leaf := range accts {
		a := &accts[leaf]
		r.rep.PatternSeqOps += a.seqOps
		kernelTime += a.kernelTime
		r.rep.TotalEdges += a.totalEdges
		r.rep.HybridEdges += a.hybridEdges
		r.rep.Fault.KernelFallbacks += a.fallbacks
	}
	r.rep.PatternSeqTime = r.opt.CPU.SequentialTime(r.rep.PatternSeqOps)
	if r.opt.Variant == CUGR {
		r.rep.Times.Pattern = r.rep.PatternSeqTime
	} else {
		r.rep.Times.Pattern = kernelTime
	}
	if m := r.opt.Obs.M(); m != nil {
		m.Counter(obs.MPatternHybrid).Add(int64(r.rep.HybridEdges))
		m.Counter(obs.MPatternLShape).Add(int64(r.rep.TotalEdges - r.rep.HybridEdges))
	}

	// The stitch is the stage's last coordinator pass; checking here means
	// a cancelled run stops before rewriting any boundary net.
	if err := r.checkpoint("stitch", -1); err != nil {
		return err
	}
	if err := r.stitchAndReconcile(fragRoutes); err != nil {
		return err
	}
	// The fragment decompositions duplicate every boundary net's Steiner
	// geometry; once stitched routes are committed nothing reads them
	// again (RRR classifies via intraLeaf and reroutes whole nets), so
	// release them rather than carry them to the stage's high-water mark.
	r.splits = nil
	r.rep.PatternQuality = r.snapshotQuality()
	r.rep.PatternScore = r.rep.PatternQuality.Score()
	r.rep.Times.PatternWall = start.Elapsed()
	r.stageDone("pattern", r.rep.Times.PatternWall, r.rep.PatternScore)
	return nil
}

// stitchAndReconcile runs the two coordinator passes over boundary nets
// in canonical net order: stitching realizes each net's crossing edges
// against the now-complete post-pattern demand (the frozen halo snapshot
// every shard routed against), and reconciliation reroutes whole any
// stitched net still crossing an over-capacity edge.
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
		for _, fr := range frs {
			if fr != nil && fr.Committed() {
				fr.Uncommit(r.g)
			}
		}
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
	rsearch := maze.NewSearch()
	rsearch.SetAlgorithm(r.opt.MazeAlgorithm)
	rsearch.SetObserver(r.opt.Obs)
	rsearch.SetBudget(r.opt.MazeBudget)
	var recExp int64
	for _, n := range r.d.Nets {
		if r.splits[n.ID] == nil {
			continue
		}
		old := r.routes[n.ID]
		if old == nil || !old.HasOverflow(r.g) {
			continue
		}
		win := n.BBox().Inflate(r.opt.MazeMargin).ClampTo(r.g.W, r.g.H)
		// The parent's cache is cold by design; a view warmed over the
		// net's window turns the search's per-relaxation cost formula into
		// array loads and is dropped with the net.
		view := r.g.WindowView(win)
		view.WarmCostCache()
		old.Uncommit(view)
		nr, st, err := rsearch.RouteNet(view, n.ID, route.PinTerminals(r.trees[n.ID]), win)
		if err != nil {
			old.Commit(view)
			var be *maze.BudgetError
			if errors.As(err, &be) {
				recExp += st.Expansions
				r.rep.Fault.BudgetFallbacks++
				r.fc.Degrade(fault.SiteBudget, 1)
				continue
			}
			return fmt.Errorf("core: shard reconciliation: %w", err)
		}
		nr.Commit(view)
		r.routes[n.ID] = nr
		r.rep.BoundaryReroutes++
		recExp += st.Expansions
	}
	r.rep.ReconcileTime = time.Duration(float64(recExp) * r.opt.MazeNsPerExpansion)
	r.rep.Times.Maze += r.rep.ReconcileTime
	return nil
}

// shardRRRStage is the sharded counterpart of rrrStage. Each iteration
// scans and sorts the violating nets globally (so the reported scheduling
// models cover exactly the same task set as the monolithic pipeline),
// then executes in two phases: intra-leaf nets fan out over leaf groups
// with leaf-clamped maze windows and window-view cost caches, and
// boundary nets reroute sequentially at the coordinator against the
// post-barrier state.
func (r *runner) shardRRRStage() error {
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

	numLeaves := r.shplan.NumLeaves()
	groups, outer, inner := r.shardGrouping()
	outerPool := par.NewPool(outer)

	// One maze scratch per composite lane (slot*inner + inner worker),
	// plus a dedicated coordinator scratch for boundary nets. Lanes are
	// disjoint across slots, so a scratch never sees two goroutines.
	searches := make([]*maze.Search, outer*inner)
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
		// The coordinator scratch grows to the largest boundary window —
		// potentially the whole grid — so unlike the leaf-bounded worker
		// scratches it is per-iteration: holding it across iterations
		// would keep a grid-sized allocation on the steady-state heap.
		csearch := maze.NewSearch()
		csearch.SetAlgorithm(r.opt.MazeAlgorithm)
		csearch.SetObserver(r.opt.Obs)
		csearch.SetBudget(r.opt.MazeBudget)
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

		windows := make([]geom.Rect, len(violating))
		modelTasks := make([]sched.Task, len(violating))
		leafTis := make([][]int, numLeaves)
		var boundaryTis []int
		for ti, n := range violating {
			windows[ti] = n.BBox().Inflate(r.opt.MazeMargin).ClampTo(r.g.W, r.g.H)
			modelTasks[ti] = sched.Task{ID: ti, BBox: n.BBox(), Payload: n}
			if leaf := r.intraLeaf[n.ID]; leaf >= 0 {
				leafTis[leaf] = append(leafTis[leaf], ti)
			} else {
				boundaryTis = append(boundaryTis, ti)
			}
		}
		// The reported scheduling models span every violating net — intra
		// and boundary alike — on the paper-faithful bounding-box conflict
		// structure, exactly like the monolithic pipeline.
		modelGraph := sched.BuildGraph(modelTasks, r.g.W, r.g.H)

		durations := make([]time.Duration, len(violating))
		expansions := make([]int64, len(violating))
		budgetTrips := make([]bool, len(violating))

		// reroute rips up one net on gg (a leaf view or the parent graph)
		// within win. Same contract as the monolithic work closure: a
		// budget trip — real or injected — keeps the old route gracefully,
		// any other maze error is a hard abort; the Committed guards make
		// containment retries idempotent.
		reroute := func(gg *grid.Graph, sr *maze.Search, ti, lane int, win geom.Rect) error {
			n := violating[ti]
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
			if old.Committed() {
				old.Uncommit(gg)
			}
			pins := route.PinTerminals(r.trees[n.ID])
			nr, st, err := sr.RouteNet(gg, n.ID, pins, win)
			if err != nil {
				if !old.Committed() {
					old.Commit(gg)
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
			nr.Commit(gg)
			r.routes[n.ID] = nr
			expansions[ti] = st.Expansions
			durations[ti] = time.Duration(float64(st.Expansions) * r.opt.MazeNsPerExpansion)
			return nil
		}

		// runLeaf executes one leaf's intra reroutes on slot s behind a
		// fresh window view (the view must postdate the previous
		// iteration's coordinator commits). Windows clamp to the leaf, so
		// every mutation stays inside it — the disjointness that lets
		// leaves run unsynchronized.
		runLeaf := func(s, leaf int) (failed, skipped int, err error) {
			tis := leafTis[leaf]
			leafRect := r.shplan.Leaf(leaf)
			view := r.g.WindowView(leafRect)
			view.WarmCostCache()
			ltasks := make([]sched.Task, len(tis))
			for i, ti := range tis {
				ltasks[i] = sched.Task{ID: i, BBox: windows[ti].Intersect(leafRect), Payload: ti}
			}
			work := func(worker, li int) error {
				lane := s*inner + worker
				return reroute(view, searches[lane], ltasks[li].Payload.(int), lane, ltasks[li].BBox)
			}
			if r.opt.Variant == CUGR {
				ip := par.NewPool(inner)
				ip.SetObserver(r.opt.Obs)
				ip.SetLane(s * inner)
				ip.SetFault(r.fc)
				for _, batch := range sched.ExtractBatches(ltasks) {
					errs := ip.ForUnits(fault.SiteTask, len(batch), func(worker, bi int) error {
						return work(worker, batch[bi].ID)
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
			lg := sched.BuildGraph(ltasks, r.g.W, r.g.H)
			frep := taskflow.RunWorkersFault(lg, inner, nil, r.fc, work)
			if frep.CancelErr != nil {
				return failed, skipped, frep.CancelErr
			}
			return len(frep.Failed), len(frep.Skipped), nil
		}

		// Phase B: intra-leaf nets, leaf groups fanned over slots.
		execErrs := make([]error, outer)
		leafFailed := make([]int, numLeaves)
		leafSkipped := make([]int, numLeaves)
		outerPool.For(outer, func(_, s int) {
			for gi := s; gi < len(groups); gi += outer {
				for _, leaf := range groups[gi] {
					if execErrs[s] != nil {
						return
					}
					if len(leafTis[leaf]) == 0 {
						continue
					}
					failed, skipped, err := runLeaf(s, leaf)
					leafFailed[leaf] = failed
					leafSkipped[leaf] = skipped
					if err != nil {
						execErrs[s] = err
						return
					}
				}
			}
		})
		for s := 0; s < outer; s++ {
			if execErrs[s] != nil {
				return fmt.Errorf("core: rip-up iteration %d: %w", iter, execErrs[s])
			}
		}
		iterFailed, iterSkipped := 0, 0
		for leaf := 0; leaf < numLeaves; leaf++ {
			iterFailed += leafFailed[leaf]
			iterSkipped += leafSkipped[leaf]
		}

		// Phase A: boundary nets, sequential at the coordinator in sorted
		// order against the complete post-barrier state, full windows. The
		// parent's cache stays cold; each net routes behind a view warmed
		// over its own window (one cost formula per edge, then array loads
		// across all of the net's passes) that is dropped with the net.
		for _, ti := range boundaryTis {
			ti := ti
			fn := func() error {
				view := r.g.WindowView(windows[ti])
				view.WarmCostCache()
				return reroute(view, csearch, ti, obs.Coordinator, windows[ti])
			}
			var err error
			if r.fc.Enabled() {
				err = r.fc.Run(fault.SiteTask, ti, obs.Coordinator, fn)
			} else {
				err = fn()
			}
			if err != nil {
				var we *fault.WorkError
				if errors.As(err, &we) && we.Contained {
					iterFailed++
					continue
				}
				return fmt.Errorf("core: rip-up iteration %d: %w", iter, err)
			}
		}

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
