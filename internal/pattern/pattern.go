// Package pattern implements the paper's pattern routing algorithms for the
// general routing stage: 3-D L-shape (Section III-D, eqs. 1–7), 3-D Z-shape
// (Section III-E, eqs. 8–14) and the hybrid-shape algorithm with HPWL-based
// selection (Sections III-F, IV-D).
//
// Each two-pin net's dynamic program is reformulated into a min-plus
// computation-graph flow — an edge-weight vector w⁽¹⁾ and matrices W⁽²⁾/W⁽³⁾
// evaluated with vector-addition and minimum reductions — exactly the
// GPU-friendly structure of Figs. 8–10. The flows are built here once and
// can be evaluated either by the sequential CPU evaluator in this package
// (the CUGR-style baseline) or by the simulated GPU device in package
// patterngpu; both produce bit-identical routing results.
//
// A Solver is the DP's reusable scratch: every table, flow and weight lives
// in arenas that are reset, not reallocated, so a warm Solver allocates
// only the route it returns.
package pattern

import (
	"math"

	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/route"
	"fastgr/internal/stt"
)

// Mode selects the pattern set of the general routing stage.
type Mode int

const (
	// LShape uses only single-bend patterns (FastGRL and the CUGR baseline).
	LShape Mode = iota
	// ZShape uses only two-bend patterns with interior bend points.
	ZShape
	// Hybrid unifies L and Z patterns as M+N candidate bend-point pairs
	// (FastGRH).
	Hybrid
	// Staircase extends the framework to three-bend patterns (the
	// "more bend points" extension of Section IV-F): hybrid candidates plus
	// sampled interior staircases, evaluated as four-stage min-plus chains.
	Staircase
)

func (m Mode) String() string {
	switch m {
	case LShape:
		return "L"
	case ZShape:
		return "Z"
	case Hybrid:
		return "hybrid"
	default:
		return "staircase"
	}
}

// Config controls one pattern routing invocation.
type Config struct {
	Mode Mode
	// Selection applies the hybrid kernel only to two-pin nets with
	// T1 < HPWL <= T2 (Section IV-D; the paper picks 100 and 500), falling
	// back to L-shape for small and tremendous nets. Only meaningful in
	// Hybrid mode.
	Selection bool
	T1, T2    int
}

// Inf marks an infeasible layer combination in a flow (a segment whose
// orientation fights the layer's preferred direction).
var Inf = math.Inf(1)

// Ops counts dynamic-program work for the deterministic timing model:
// FlowOps is the min-plus inner-loop count (the work a GPU lane array would
// absorb), DownOps the bottom-children-cost work, which stays on the
// sequential side in both implementations.
type Ops struct {
	FlowOps int64
	DownOps int64
}

// Total returns all counted operations.
func (o Ops) Total() int64 { return o.FlowOps + o.DownOps }

// Add accumulates counters.
func (o *Ops) Add(p Ops) {
	o.FlowOps += p.FlowOps
	o.DownOps += p.DownOps
}

// Result is the outcome of routing one multi-pin net.
type Result struct {
	Route *route.NetRoute
	Cost  float64
	Ops   Ops
	// Edges and HybridEdges count the two-pin nets routed, and how many of
	// them used the hybrid kernel (selection statistics for Table VI).
	Edges       int
	HybridEdges int
}

// Evaluator abstracts who executes a two-pin net's computation-graph flow:
// the sequential CPU (this package) or the simulated GPU (patterngpu).
type Evaluator interface {
	// EvalProgram writes, for every target layer lt in 1..L, the minimum
	// edge cost val[lt-1] (eq. 3 / eq. 10) and the argmin choice that
	// achieves it into the caller's buffers.
	EvalProgram(p *EdgeProgram, val []float64, choices []Choice)
}

// Choice records the argmin of one target layer: the candidate flow index
// (-1 for the single L-shape flow) and the source/bend layers.
type Choice struct {
	Cand   int
	Ls, Lb int // 1-based; Lb is 0 for L-shape flows
	Lc     int // second bend layer; only set for staircase flows
}

// Solve routes one net on a fresh Solver.
func Solve(g *grid.Graph, tree *stt.Tree, cfg Config, eval Evaluator) Result {
	return new(Solver).Solve(g, tree, cfg, eval)
}

// SolveCPU routes one net with the sequential CPU evaluator on a fresh
// Solver.
func SolveCPU(g *grid.Graph, tree *stt.Tree, cfg Config) Result {
	return new(Solver).SolveCPU(g, tree, cfg)
}

// Solver is the pattern DP's scratch, reused across nets. The zero value is
// ready; a Solver serves one goroutine at a time, so each host worker owns
// one. Per tree node u the DP tables hold L entries at [u*L, u*L+L); flow
// headers and bend points live per net, until reconstruction; flow weights
// live per two-pin program and are overwritten by the next one.
type Solver struct {
	g    *grid.Graph
	tree *stt.Tree
	cfg  Config
	L    int
	ops  Ops
	// viaReads counts via-stack costs read from cost-field prefix runs; it
	// reaches grid.cost.hits once per net.
	viaReads int64

	twoPins    []route.TwoPin
	edgeVal    []float64     // c*(u, parent, lt) for the edge u->parent
	edgeChoice []Choice      // argmin data for reconstruction
	down       []float64     // cbc(u, l) including u's pin stack
	downPick   []downChoice  // the via-stack interval achieving cbc(u, l)
	edgeProg   []EdgeProgram // u's edge program; only its bends outlive the edge

	zflows []ZFlow
	sflows []SFlow
	bends  []geom.Point

	w    []float64 // weights of the program being built
	seg  []float64 // 4L: leg cost vectors of the flow being built
	via  []float64 // L: via-edge costs above each layer at one node
	ival []float64 // L*L: cost of each via-stack interval [lo, hi] at one node
	mins []float64 // per child: its cheapest layer cost inside the interval

	cpu CPUEvaluator  // SolveCPU's evaluator
	b   route.Builder // the route being reconstructed
}

// downChoice records how cbc(u, l) was achieved: the via-stack interval;
// lo is 0 when no interval is feasible. Each child connects at its cheapest
// layer inside the interval (see childLayer).
type downChoice struct {
	lo, hi int
}

// grow returns s resized to n elements, reallocating only when it lacks
// capacity; the contents are not cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Solve routes one multi-pin net: builds the Steiner-tree DP bottom-up in
// the intra-net DFS order, evaluating every two-pin net's flow with eval,
// then reconstructs the optimal geometry. The grid is not modified; callers
// commit the returned route, the only memory the call hands out.
func (s *Solver) Solve(g *grid.Graph, tree *stt.Tree, cfg Config, eval Evaluator) Result {
	s.reset(g, tree, cfg)
	L := s.L
	s.twoPins = route.Decompose(s.twoPins[:0], tree)
	res := Result{Edges: len(s.twoPins)}
	for _, tp := range s.twoPins {
		s.computeDown(tp.Child)
		prog := s.buildProgram(tp)
		if prog.Hybrid {
			res.HybridEdges++
		}
		c := tp.Child * L
		eval.EvalProgram(prog, s.edgeVal[c:c+L], s.edgeChoice[c:c+L])
	}
	s.computeDown(tree.Root)

	// Root cost: eq. 4 — minimize over the root's access layer.
	rootVal := s.down[tree.Root*L : tree.Root*L+L]
	bestL, best := 1, rootVal[0]
	for l := 2; l <= L; l++ {
		if rootVal[l-1] < best {
			bestL, best = l, rootVal[l-1]
		}
	}
	res.Cost = best
	s.b.Reset(g, tree.NetID)
	s.reconstruct(tree.Root, bestL)
	res.Route = s.b.Build()
	res.Ops = s.ops
	if s.viaReads > 0 {
		_, _, hits := g.CostField()
		hits.Add(s.viaReads)
	}
	return res
}

// reset points the scratch at a new net and sizes its arenas.
func (s *Solver) reset(g *grid.Graph, tree *stt.Tree, cfg Config) {
	n, L := len(tree.Nodes), g.L
	s.g, s.tree, s.cfg, s.L = g, tree, cfg, L
	s.ops, s.viaReads = Ops{}, 0
	s.edgeVal = grow(s.edgeVal, n*L)
	s.edgeChoice = grow(s.edgeChoice, n*L)
	s.down = grow(s.down, n*L)
	s.downPick = grow(s.downPick, n*L)
	s.edgeProg = grow(s.edgeProg, n)
	s.zflows, s.sflows, s.bends = s.zflows[:0], s.sflows[:0], s.bends[:0]
	s.seg = grow(s.seg, 4*L)
	s.via = grow(s.via, L)
	s.ival = grow(s.ival, L*L)
}

// SolveCPU routes one net with the solver's own sequential CPU evaluator,
// folding the evaluation work into the result's FlowOps.
func (s *Solver) SolveCPU(g *grid.Graph, tree *stt.Tree, cfg Config) Result {
	s.cpu.Ops = Ops{}
	res := s.Solve(g, tree, cfg, &s.cpu)
	res.Ops.FlowOps += s.cpu.Ops.FlowOps
	return res
}

// useHybrid applies the selection rule to one two-pin net.
func (s *Solver) useHybrid(tp route.TwoPin) bool {
	switch s.cfg.Mode {
	case LShape:
		return false
	case ZShape, Hybrid, Staircase:
		if s.cfg.Mode != ZShape && s.cfg.Selection {
			h := tp.HPWL()
			return h > s.cfg.T1 && h <= s.cfg.T2
		}
		return true
	}
	return false
}
