package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"fastgr/internal/atomicio"
	"fastgr/internal/core"
	"fastgr/internal/design"
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

// The layer replay re-executes each layer's public entry points on the
// inputs one op gave them, single-threaded, outside core.Route: from an
// RRRIters=0 result (plan + pattern stage done, nothing ripped up) it has
// the trees, the committed pattern routes and the grid the first rip-up
// iteration would start from. Layers are timed from outside — spans inside
// the program are a later change.

// replayReps is how often a replayed step repeats (the median is
// reported); a step whose first repetition runs longer than slowStep is
// not repeated, which keeps a traced run inside the run budget.
const (
	replayReps = 3
	slowStep   = 2500 * time.Millisecond
)

type replayer struct {
	rec  *recorder
	l    *ledger
	root int // the "replay" span every step hangs under

	d    *design.Design
	opt  core.Options
	base *core.Result
}

// step times body replayReps times under a span named name and returns
// the median. prep, when non-nil, runs untimed before every repetition
// (steps that consume their input rebuild it there).
func (p *replayer) step(name string, prep, body func()) time.Duration {
	var times []time.Duration
	for i := 0; i < replayReps; i++ {
		if prep != nil {
			prep()
		}
		sp := p.rec.start(name, p.root, 0)
		sw := obs.StartStopwatch()
		body()
		times = append(times, sw.Elapsed())
		p.rec.end(sp)
		if times[0] > slowStep {
			break
		}
	}
	return medianDur(times)
}

// patternConfig mirrors core's resolution of the variant's pattern kernel.
func patternConfig(opt core.Options) pattern.Config {
	if opt.Variant != core.FastGRH {
		return pattern.Config{Mode: pattern.LShape}
	}
	return pattern.Config{Mode: pattern.Hybrid, Selection: !opt.SelectionOff, T1: opt.T1, T2: opt.T2}
}

// stageAcct is what one replayed pattern stage did.
type stageAcct struct {
	Edges   int
	SeqOps  int64
	Kernel  time.Duration
	Mallocs uint64
}

// patternStage replays the whole pattern stage on a fresh grid, batch by
// batch in the op's order, committing each batch as core does. solve
// routes one batch and returns its results.
func (p *replayer) patternStage(name string, batches [][]sched.Task, solve func(g *grid.Graph, trees []*stt.Tree, acct *stageAcct) []pattern.Result) (time.Duration, stageAcct) {
	var g *grid.Graph
	var acct stageAcct
	var before, after runtime.MemStats
	d := p.step(name,
		func() {
			g = grid.NewFromDesign(p.d)
			acct = stageAcct{}
			runtime.ReadMemStats(&before)
		},
		func() {
			for _, batch := range batches {
				trees := make([]*stt.Tree, len(batch))
				for i, task := range batch {
					trees[i] = p.base.Trees[task.Payload.(*design.Net).ID]
				}
				for _, res := range solve(g, trees, &acct) {
					res.Route.Commit(g)
					acct.Edges += res.Edges
				}
			}
		})
	runtime.ReadMemStats(&after)
	acct.Mallocs = after.Mallocs - before.Mallocs
	return d, acct
}

// gpuSolver routes batches through patterngpu with one host worker.
func (p *replayer) gpuSolver(cfg pattern.Config) func(*grid.Graph, []*stt.Tree, *stageAcct) []pattern.Result {
	var router *patterngpu.Router
	var owner *grid.Graph
	return func(g *grid.Graph, trees []*stt.Tree, acct *stageAcct) []pattern.Result {
		if g != owner { // a fresh grid starts a fresh stage: new device clock
			router = patterngpu.New(p.opt.Device, cfg)
			router.Workers = 1
			router.CPU = p.opt.CPU
			owner = g
		}
		br := router.RouteBatch(g, trees)
		acct.SeqOps += br.SeqOps
		acct.Kernel += br.KernelTime
		return br.Results
	}
}

// cpuSolver is the CUGR pattern path: one cost-cache warm per batch, then
// pattern.SolveCPU net by net.
func cpuSolver(cfg pattern.Config) func(*grid.Graph, []*stt.Tree, *stageAcct) []pattern.Result {
	return func(g *grid.Graph, trees []*stt.Tree, acct *stageAcct) []pattern.Result {
		g.WarmCostCache()
		out := make([]pattern.Result, len(trees))
		for i, t := range trees {
			out[i] = pattern.SolveCPU(g, t, cfg)
			acct.SeqOps += out[i].Ops.Total()
		}
		return out
	}
}

// run replays every layer and books the per-layer rows.
func (p *replayer) run(dir string, atomicioReps int) error {
	d, opt, l := p.d, p.opt, p.l
	nets := float64(len(d.Nets))
	p.root = p.rec.start("replay", noSpan, 0)
	defer func() { p.rec.end(p.root) }()

	opt0 := opt
	opt0.RRRIters = 0
	sp := p.rec.start("core.Route(rrr=0)", p.root, 0)
	base, err := core.Route(d, opt0)
	p.rec.end(sp)
	if err != nil {
		return fmt.Errorf("replay base route: %w", err)
	}
	p.base = base
	g := base.Grid

	// stt: tree construction and congestion-aware edge shifting.
	trees := make([]*stt.Tree, len(d.Nets))
	buildTrees := func() {
		for i, n := range d.Nets {
			trees[i] = stt.Build(n)
		}
	}
	build := p.step("stt.Build", nil, buildTrees)
	est := grid.NewFromDesign(d).Estimator2D()
	shift := p.step("stt.Shift", buildTrees, func() {
		for _, t := range trees {
			t.Shift(est)
		}
	})
	l.setMs("stt.build_ms", build)
	l.setMs("stt.shift_ms", shift)
	l.set("stt.ns_per_net", float64(build+shift)/nets)

	// grid: construction, a full cost-cache warm, demand commits.
	l.setMs("grid.new_ms", p.step("grid.NewFromDesign", nil, func() { grid.NewFromDesign(d) }))
	l.setMs("grid.warm_ms", p.step("grid.WarmCostCache", g.InvalidateCostCache, g.WarmCostCache))
	commit := p.step("route.Uncommit+Commit", nil, func() {
		for _, n := range d.Nets {
			rt := base.Routes[n.ID]
			rt.Uncommit(g)
			rt.Commit(g)
		}
	})
	l.set("grid.commit_ns_per_net", float64(commit)/nets)

	// sched: net ordering + Algorithm-1 batching of the pattern stage.
	var batches [][]sched.Task
	l.setMs("sched.sort_batch_ms", p.step("sched.SortNets+ExtractBatches", nil, func() {
		ordered := append([]*design.Net(nil), d.Nets...)
		sched.SortNets(ordered, opt.Scheme)
		tasks := make([]sched.Task, len(ordered))
		for i, n := range ordered {
			tasks[i] = sched.Task{ID: i, BBox: base.Trees[n.ID].BBox(), Payload: n}
		}
		batches = sched.ExtractBatches(tasks)
	}))
	l.set("sched.batches", float64(len(batches)))

	// pattern stage three ways: the op's own kernel on the simulated GPU,
	// the same through the sequential CPU path, and the hybrid kernel on
	// every two-pin net (selection off).
	cfg := patternConfig(opt)
	stage, acct := p.patternStage("patterngpu.RouteBatch", batches, p.gpuSolver(cfg))
	l.setMs("patterngpu.stage_ms", stage)
	l.set("patterngpu.ns_per_edge", float64(stage)/float64(acct.Edges))
	l.set("patterngpu.allocs_per_net", float64(acct.Mallocs)/nets)
	l.set("pattern.seq_ops", float64(acct.SeqOps))
	l.set("gpu.kernel_model", ms(acct.Kernel))
	cpuStage, _ := p.patternStage("pattern.SolveCPU", batches, cpuSolver(cfg))
	l.setMs("pattern.cpu_stage_ms", cpuStage)
	hybridAll, _ := p.patternStage("patterngpu.RouteBatch(hybrid-all)", batches,
		p.gpuSolver(pattern.Config{Mode: pattern.Hybrid}))
	l.setMs("pattern.hybrid_all_ms", hybridAll)

	// route: the two whole-design scans every rip-up iteration pays.
	l.setMs("route.overflow_scan_ms", p.step("route.HasOverflow", nil, func() {
		for _, n := range d.Nets {
			base.Routes[n.ID].HasOverflow(g)
		}
	}))
	l.setMs("route.quality_scan_ms", p.step("route.Wirelength+ViaCount+Overflow", nil, func() {
		for _, n := range d.Nets {
			base.Routes[n.ID].Wirelength(g)
			base.Routes[n.ID].ViaCount(g)
		}
		g.Overflow()
	}))

	if err := p.mazeIteration(); err != nil {
		return err
	}

	// par: the cost of handing one unit to the pool.
	const units = 1 << 20
	forWall := p.step("par.For", nil, func() { par.For(execWorkers, units, func(_, _ int) {}) })
	l.set("par.for_ns_per_unit", float64(forWall)/units)

	// shard: the cut plan and the tree splitting, on this design whether
	// or not the workload routes sharded.
	var plan *shard.Plan
	l.setMs("shard.plan_ms", p.step("shard.BuildPlan", nil, func() { plan = shard.BuildPlan(d, opt.MazeMargin) }))
	boundary := 0
	l.setMs("shard.split_ms", p.step("shard.SplitTree", nil, func() {
		boundary = 0
		for _, n := range d.Nets {
			if t := base.Trees[n.ID]; plan.LeafOf(t.BBox()) < 0 {
				shard.SplitTree(plan, t)
				boundary++
			}
		}
	}))
	l.set("shard.leaves", float64(plan.NumLeaves()))
	l.set("shard.boundary_nets", float64(boundary))

	// atomicio: one crash-safe publish of a guide-sized and of a
	// journal-sized buffer.
	for _, probe := range []struct {
		metric string
		size   int
	}{{"atomicio.write_guide_ms", 22 << 10}, {"atomicio.write_journal_ms", 140 << 10}} {
		buf := make([]byte, probe.size)
		path := filepath.Join(dir, "atomicio.probe")
		var times []float64
		for i := 0; i < atomicioReps; i++ {
			sp := p.rec.start("atomicio.WriteFile", p.root, 0)
			sw := obs.StartStopwatch()
			err := atomicio.WriteFile(path, buf)
			times = append(times, ms(sw.Elapsed()))
			p.rec.end(sp)
			if err != nil {
				return err
			}
		}
		l.set(probe.metric, median(times))
	}
	return nil
}

// mazeIteration replays rip-up iteration 0 over the violating nets of the
// pattern result: uncommit → Search.RouteNet → commit per net, under the
// same conflict graph core builds. Any topological order commits the same
// routes as a parallel run, which the replay checks on itself.
func (p *replayer) mazeIteration() error {
	d, opt, g, l := p.d, p.opt, p.base.Grid, p.l
	routes := p.base.Routes

	var violating []*design.Net
	for _, n := range d.Nets {
		if routes[n.ID].HasOverflow(g) {
			violating = append(violating, n)
		}
	}
	sched.SortNets(violating, opt.Scheme)
	tasks := make([]sched.Task, len(violating))
	for i, n := range violating {
		win := n.BBox().Inflate(opt.MazeMargin).ClampTo(g.W, g.H)
		tasks[i] = sched.Task{ID: i, BBox: win, Payload: n}
	}
	var graph *sched.Graph
	l.setMs("sched.graph_ms", p.step("sched.BuildGraph", nil, func() { graph = sched.BuildGraph(tasks, g.W, g.H) }))
	l.set("sched.conflict_edges", float64(graph.Edges))
	l.set("maze.nets", float64(len(tasks)))

	// reroute is one task body, as core runs it: uncommit the pattern
	// route, search, commit the new route.
	searches := make([]*maze.Search, execWorkers)
	for i := range searches {
		searches[i] = maze.NewSearch()
		searches[i].SetAlgorithm(opt.MazeAlgorithm)
	}
	rerouted := make([]*route.NetRoute, len(tasks))
	taskExp := make([]int64, len(tasks))
	taskSearch := make([]time.Duration, len(tasks))
	taskErr := make([]error, len(tasks))
	reroute := func(worker, ti int) {
		n := tasks[ti].Payload.(*design.Net)
		routes[n.ID].Uncommit(g)
		sw := obs.StartStopwatch()
		nr, st, err := searches[worker].RouteNet(g, n.ID, route.PinTerminals(p.base.Trees[n.ID]), tasks[ti].BBox)
		taskSearch[ti] = sw.Elapsed()
		if err != nil {
			routes[n.ID].Commit(g)
			taskErr[ti] = fmt.Errorf("replay maze net %s: %w", n.Name, err)
			return
		}
		nr.Commit(g)
		rerouted[ti], taskExp[ti] = nr, st.Expansions
	}
	// settle puts the pattern routes back, so the next pass (and every
	// later step) starts from the same grid, and returns what the pass
	// expanded or the first error it hit.
	order := graph.TopoOrder()
	settle := func() (int64, error) {
		var exp int64
		var first error
		for i := len(order) - 1; i >= 0; i-- {
			ti := order[i]
			if first == nil {
				first = taskErr[ti]
			}
			if rerouted[ti] != nil {
				rerouted[ti].Uncommit(g)
				routes[tasks[ti].Payload.(*design.Net).ID].Commit(g)
			}
			exp += taskExp[ti]
			rerouted[ti], taskExp[ti], taskErr[ti] = nil, 0, nil
		}
		return exp, first
	}

	// Each repetition makes two passes over the same iteration: one
	// sequential, in topological order, timing every task (the sum and,
	// through the graph, the critical path), and one for real on
	// execWorkers through the task-graph executor, whose wall is the
	// makespan that graph actually achieved.
	durations := make([]time.Duration, len(tasks))
	var expansions int64
	var searchNs, sums, cps, spans []float64
	for rep := 0; rep < replayReps; rep++ {
		g.WarmCostCache()
		sp := p.rec.start("maze.iteration", p.root, 0)
		iter := obs.StartStopwatch()
		var searchTime, total time.Duration
		for _, ti := range order {
			task := obs.StartStopwatch()
			reroute(0, ti)
			durations[ti] = task.Elapsed()
			searchTime += taskSearch[ti]
			total += durations[ti]
		}
		seqWall := iter.Elapsed()
		p.rec.end(sp)
		seqExp, err := settle()
		if err != nil {
			return err
		}

		g.WarmCostCache()
		sp = p.rec.start("taskflow.RunWorkers(maze)", p.root, 0)
		iter = obs.StartStopwatch()
		taskflow.RunWorkers(graph, execWorkers, reroute)
		parWall := iter.Elapsed()
		p.rec.end(sp)
		parExp, err := settle()
		if err != nil {
			return err
		}
		if parExp != seqExp {
			return fmt.Errorf("replay maze: %d workers expanded %d nodes, sequential order %d", execWorkers, parExp, seqExp)
		}
		expansions = seqExp
		searchNs = append(searchNs, float64(searchTime))
		sums = append(sums, float64(total))
		cps = append(cps, float64(taskflow.CriticalPath(graph, durations)))
		spans = append(spans, float64(parWall))
		if seqWall > slowStep {
			break
		}
	}
	l.set("maze.search_ms", median(searchNs)/1e6)
	l.set("maze.expansions", float64(expansions))
	l.set("taskflow.sum_ms", median(sums)/1e6)
	l.set("taskflow.critical_path_ms", median(cps)/1e6)
	l.set("taskflow.makespan_w2_ms", median(spans)/1e6)
	if expansions > 0 {
		l.set("maze.ns_per_expansion", median(searchNs)/float64(expansions))
		l.set("taskflow.parallelism_w2", median(sums)/median(spans))
	}
	if len(tasks) > 0 {
		dispatch := p.step("taskflow.RunWorkers", nil, func() {
			taskflow.RunWorkers(graph, execWorkers, func(_, _ int) {})
		})
		l.set("taskflow.dispatch_us_per_task", float64(dispatch)/1e3/float64(len(tasks)))
	}
	return nil
}
