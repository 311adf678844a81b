package pattern

import (
	"fmt"
	"math"

	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/route"
	"fastgr/internal/stt"
)

// The allocating pattern DP as it stood before the Solver scratch: one slice
// per node table, per flow and per min-plus output, every interval of the
// bottom-children cost enumerated once per access layer, every bend matrix
// computed in full. It is the reference solver_test.go holds the Solver to,
// value for value, choice for choice and op for op.

// refSolve routes one net with the reference DP.
func refSolve(g *grid.Graph, tree *stt.Tree, cfg Config) (*refSolver, Result) {
	s := &refSolver{g: g, tree: tree, cfg: cfg, L: g.L}
	return s, s.run()
}

type refSolver struct {
	g    *grid.Graph
	tree *stt.Tree
	cfg  Config
	L    int

	// Per tree node (indexed by node id):
	edgeVal    [][]float64       // c*(node, parent, lt) for the edge node->parent
	edgeChoice [][]Choice        // argmin data for reconstruction
	edgeProg   []*EdgeProgram    // flow kept for geometry reconstruction
	down       [][]float64       // cbc(node, l) including the node's pin stack
	downPick   [][]refDownChoice // argmin data for reconstruction

	ops     Ops
	evalOps Ops // the evaluator's work, kept apart as SolveCPU kept it

	// pieces is the reconstructed geometry element by element, one per DP
	// term — wires (Lo == Hi) and via stacks — as routes held it before
	// the sealed edge list became the route.
	pieces []grid.Run
}

// refDownChoice records how cbc(u, l) was achieved: the via-stack interval and
// each child's connection layer.
type refDownChoice struct {
	lo, hi      int
	childLayers []int
}

// run routes the net, reconstructing like Solve and counting like SolveCPU.
func (s *refSolver) run() Result {
	n := s.tree.Len()
	s.edgeVal = make([][]float64, n)
	s.edgeChoice = make([][]Choice, n)
	s.edgeProg = make([]*EdgeProgram, n)
	s.down = make([][]float64, n)
	s.downPick = make([][]refDownChoice, n)

	twoPins := route.Decompose(nil, s.tree)
	res := Result{Edges: len(twoPins)}

	for _, tp := range twoPins {
		s.computeDown(tp.Child)
		prog := s.buildProgram(tp)
		if prog.Hybrid {
			res.HybridEdges++
		}
		val, choices := refEvalProgramSeq(prog, &s.evalOps)
		s.edgeVal[tp.Child] = val
		s.edgeChoice[tp.Child] = choices
		s.edgeProg[tp.Child] = prog
	}
	s.computeDown(s.tree.Root)

	// Root cost: eq. 4 — minimize over the root's access layer.
	rootVal := s.down[s.tree.Root]
	bestL, best := 1, rootVal[0]
	for l := 2; l <= s.L; l++ {
		if rootVal[l-1] < best {
			bestL, best = l, rootVal[l-1]
		}
	}
	res.Cost = best
	s.reconstruct(s.tree.Root, bestL)
	var b route.Builder
	b.Reset(s.g, s.tree.NetID)
	for _, p := range s.pieces {
		if p.Lo == p.Hi {
			b.Seg(p.Lo, p.A, p.B)
		} else {
			b.Via(p.A.X, p.A.Y, p.Lo, p.Hi)
		}
	}
	res.Route = b.Build()
	res.Ops = s.ops
	res.Ops.FlowOps += s.evalOps.FlowOps
	return res
}

// useHybrid applies the selection rule to one two-pin net.
func (s *refSolver) useHybrid(tp route.TwoPin) bool {
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

func (s *refSolver) buildProgram(tp route.TwoPin) *EdgeProgram {
	if s.useHybrid(tp) {
		var prog *EdgeProgram
		if s.cfg.Mode == Staircase {
			prog = s.buildStairProgram(tp)
		} else {
			prog = s.buildZProgram(tp)
		}
		if prog != nil {
			return prog
		}
	}
	return s.buildLProgram(tp)
}

// segOrient returns whether a->b is horizontal; a must differ from b in
// exactly one axis (callers construct bends that guarantee this).
func segOrient(a, b geom.Point) grid.Dir {
	if a.Y == b.Y {
		return grid.Horizontal
	}
	return grid.Vertical
}

// segCostAllLayers returns, per layer, the cost of the straight run a-b, or
// Inf on layers whose preferred direction fights the run. A zero-length run
// costs zero on every layer. The bulk grid query answers each feasible
// layer from the cost cache's prefix sums when warm; the DP op accounting
// (one op per G-cell per feasible layer — the modeled-time currency) is
// unchanged from the per-layer walk: a layer's cost is finite exactly when
// its direction matches the run.
func (s *refSolver) segCostAllLayers(a, b geom.Point) []float64 {
	costs := make([]float64, s.L)
	if a == b {
		return costs
	}
	s.g.SegCostsAllLayers(a, b, costs)
	dist := int64(geom.ManhattanDist(a, b))
	for l := 1; l <= s.L; l++ {
		if costs[l-1] < Inf {
			s.ops.FlowOps += dist
		}
	}
	return costs
}

// buildLProgram assembles the L-shape flow of eqs. 5–6.
func (s *refSolver) buildLProgram(tp route.TwoPin) *EdgeProgram {
	L := s.L
	src, dst := tp.Source(), tp.Target()
	down := s.down[tp.Child]

	b1 := geom.Point{X: dst.X, Y: src.Y} // x-first bend
	b2 := geom.Point{X: src.X, Y: dst.Y} // y-first bend
	seg1H := s.segCostAllLayers(src, b1) // horizontal first leg
	seg1V := s.segCostAllLayers(src, b2) // vertical first leg
	seg2V := s.segCostAllLayers(b1, dst) // vertical second leg
	seg2H := s.segCostAllLayers(b2, dst) // horizontal second leg

	f := &LFlow{
		W1:    make([]float64, L),
		W2:    make([]float64, L*L),
		Bends: make([]geom.Point, L),
	}
	for ls := 1; ls <= L; ls++ {
		var bend geom.Point
		var leg1, leg2 []float64
		if s.g.Dir(ls) == grid.Horizontal {
			bend, leg1, leg2 = b1, seg1H, seg2V
		} else {
			bend, leg1, leg2 = b2, seg1V, seg2H
		}
		f.Bends[ls-1] = bend
		f.W1[ls-1] = down[ls-1] + leg1[ls-1]
		for lt := 1; lt <= L; lt++ {
			s.ops.FlowOps++
			w := leg2[lt-1]
			if w < Inf {
				w += s.g.ViaStackCost(bend.X, bend.Y, ls, lt)
			}
			f.W2[(ls-1)*L+(lt-1)] = w
		}
	}
	return &EdgeProgram{TP: tp, L: L, LFlow: *f}
}

// buildZProgram assembles the candidate Z-shape flows. In Hybrid mode the
// bend columns/rows span the whole bounding box (M+N candidates, the two
// boundary ones degenerating into L shapes, Section III-F); in ZShape mode
// only the interior M+N-2 candidates are used, and nil is returned when the
// box is too thin to have any (the caller falls back to L).
func (s *refSolver) buildZProgram(tp route.TwoPin) *EdgeProgram {
	L := s.L
	src, dst := tp.Source(), tp.Target()
	lox, hix := geom.Min(src.X, dst.X), geom.Max(src.X, dst.X)
	loy, hiy := geom.Min(src.Y, dst.Y), geom.Max(src.Y, dst.Y)

	interiorOnly := s.cfg.Mode == ZShape
	var flows []ZFlow
	for xi := lox; xi <= hix; xi++ {
		if interiorOnly && (xi == src.X || xi == dst.X) {
			continue
		}
		bs := geom.Point{X: xi, Y: src.Y}
		bt := geom.Point{X: xi, Y: dst.Y}
		flows = append(flows, s.buildZFlow(tp, bs, bt))
	}
	for yi := loy; yi <= hiy; yi++ {
		if interiorOnly && (yi == src.Y || yi == dst.Y) {
			continue
		}
		bs := geom.Point{X: src.X, Y: yi}
		bt := geom.Point{X: dst.X, Y: yi}
		flows = append(flows, s.buildZFlow(tp, bs, bt))
	}
	if len(flows) == 0 {
		return nil
	}
	return &EdgeProgram{TP: tp, L: L, Hybrid: true, ZFlows: flows}
}

// buildZFlow assembles eqs. 11–13 for one bend-point pair.
func (s *refSolver) buildZFlow(tp route.TwoPin, bs, bt geom.Point) ZFlow {
	L := s.L
	src, dst := tp.Source(), tp.Target()
	down := s.down[tp.Child]

	seg1 := s.segCostAllLayers(src, bs)
	seg2 := s.segCostAllLayers(bs, bt)
	seg3 := s.segCostAllLayers(bt, dst)

	f := ZFlow{
		W1: make([]float64, L),
		W2: make([]float64, L*L),
		W3: make([]float64, L*L),
		Bs: bs,
		Bt: bt,
	}
	for ls := 1; ls <= L; ls++ {
		f.W1[ls-1] = down[ls-1] + seg1[ls-1]
		for lb := 1; lb <= L; lb++ {
			s.ops.FlowOps++
			w := seg2[lb-1]
			if w < Inf {
				w += s.g.ViaStackCost(bs.X, bs.Y, ls, lb)
			}
			f.W2[(ls-1)*L+(lb-1)] = w
		}
	}
	for lb := 1; lb <= L; lb++ {
		for lt := 1; lt <= L; lt++ {
			s.ops.FlowOps++
			w := seg3[lt-1]
			if w < Inf {
				w += s.g.ViaStackCost(bt.X, bt.Y, lb, lt)
			}
			f.W3[(lb-1)*L+(lt-1)] = w
		}
	}
	return f
}

// computeDown fills cbc(u, ·) — eq. 2 extended with the node's own pin
// access: for every access layer la, the cheapest way to terminate all of
// u's already-routed children edges and u's pins onto a single via stack at
// u's position that also reaches la.
//
// The enumeration over stack intervals [lo,hi] is exact: any solution's via
// stack at u spans some layer interval containing la, every chosen child
// connection layer, and every pin layer; conversely every such interval
// yields a feasible solution, so minimizing over intervals (with each child
// independently picking its best layer inside) is the true minimum.
func (s *refSolver) computeDown(u int) {
	pos := s.tree.Pos(u)
	L := s.L
	down := make([]float64, L)
	picks := make([]refDownChoice, L)

	pinLo, pinHi := 0, 0
	if pins := s.tree.PinLayers(u); len(pins) > 0 {
		pinLo, pinHi = int(pins[0]), int(pins[0])
		for _, pl := range pins[1:] {
			if int(pl) < pinLo {
				pinLo = int(pl)
			}
			if int(pl) > pinHi {
				pinHi = int(pl)
			}
		}
	}

	// Memoize via-stack costs from each lo upward.
	stack := make([][]float64, L+1)
	for lo := 1; lo <= L; lo++ {
		stack[lo] = make([]float64, L+1)
		for hi := lo + 1; hi <= L; hi++ {
			stack[lo][hi] = stack[lo][hi-1] + s.g.ViaEdgeCost(pos.X, pos.Y, hi-1)
		}
	}

	children := s.tree.Children(u)
	for la := 1; la <= L; la++ {
		best := Inf
		var bestPick refDownChoice
		for lo := 1; lo <= la; lo++ {
			if pinLo != 0 && lo > pinLo {
				break
			}
			for hi := la; hi <= L; hi++ {
				if pinHi != 0 && hi < pinHi {
					continue
				}
				cost := stack[lo][hi]
				pick := refDownChoice{lo: lo, hi: hi, childLayers: make([]int, 0, len(children))}
				feasible := true
				for _, c := range children {
					ev := s.edgeVal[c]
					bl, bc := 0, Inf
					for l := lo; l <= hi; l++ {
						s.ops.DownOps++
						if ev[l-1] < bc {
							bc, bl = ev[l-1], l
						}
					}
					if math.IsInf(bc, 1) {
						feasible = false
						break
					}
					cost += bc
					pick.childLayers = append(pick.childLayers, bl)
				}
				if feasible && cost < best {
					best, bestPick = cost, pick
				}
			}
		}
		down[la-1] = best
		picks[la-1] = bestPick
	}
	s.down[u] = down
	s.downPick[u] = picks
}

// buildStairProgram assembles the staircase program: the full hybrid
// candidate set plus sampled interior staircases. Returns nil when the net
// is too small for any flow (caller falls back to L).
func (s *refSolver) buildStairProgram(tp route.TwoPin) *EdgeProgram {
	base := s.buildZProgram(tp)
	if base == nil {
		return nil
	}
	src, dst := tp.Source(), tp.Target()
	lox, hix := geom.Min(src.X, dst.X), geom.Max(src.X, dst.X)
	loy, hiy := geom.Min(src.Y, dst.Y), geom.Max(src.Y, dst.Y)
	m, n := hix-lox-1, hiy-loy-1 // interior coordinate counts
	if m > 0 && n > 0 {
		stride := 1
		for (m/stride+1)*(n/stride+1) > MaxStairCands {
			stride++
		}
		for xi := lox + 1; xi < hix; xi += stride {
			for yj := loy + 1; yj < hiy; yj += stride {
				// HVHV: s -(H)-> B1 -(V)-> B2 -(H)-> B3 -(V)-> t.
				b1 := geom.Point{X: xi, Y: src.Y}
				b2 := geom.Point{X: xi, Y: yj}
				b3 := geom.Point{X: dst.X, Y: yj}
				base.SFlows = append(base.SFlows, s.buildSFlow(tp, b1, b2, b3))
				// VHVH: s -(V)-> B1' -(H)-> B2' -(V)-> B3' -(H)-> t.
				b1v := geom.Point{X: src.X, Y: yj}
				b2v := geom.Point{X: xi, Y: yj}
				b3v := geom.Point{X: xi, Y: dst.Y}
				base.SFlows = append(base.SFlows, s.buildSFlow(tp, b1v, b2v, b3v))
			}
		}
	}
	return base
}

// buildSFlow assembles one staircase flow's weight chain.
func (s *refSolver) buildSFlow(tp route.TwoPin, b1, b2, b3 geom.Point) SFlow {
	L := s.L
	src, dst := tp.Source(), tp.Target()
	down := s.down[tp.Child]

	seg1 := s.segCostAllLayers(src, b1)
	seg2 := s.segCostAllLayers(b1, b2)
	seg3 := s.segCostAllLayers(b2, b3)
	seg4 := s.segCostAllLayers(b3, dst)

	f := SFlow{
		W1: make([]float64, L),
		W2: make([]float64, L*L),
		W3: make([]float64, L*L),
		W4: make([]float64, L*L),
		B1: b1, B2: b2, B3: b3,
	}
	for ls := 1; ls <= L; ls++ {
		f.W1[ls-1] = down[ls-1] + seg1[ls-1]
	}
	fill := func(w []float64, bend geom.Point, seg []float64) {
		for a := 1; a <= L; a++ {
			for b := 1; b <= L; b++ {
				s.ops.FlowOps++
				v := seg[b-1]
				if v < Inf {
					v += s.g.ViaStackCost(bend.X, bend.Y, a, b)
				}
				w[(a-1)*L+(b-1)] = v
			}
		}
	}
	fill(f.W2, b1, seg2)
	fill(f.W3, b2, seg3)
	fill(f.W4, b3, seg4)
	return f
}

// refEvalSFlow chains three min-plus stages and returns per-target-layer cost
// and the argmin (ls, lb, lc) triple.
func refEvalSFlow(f *SFlow, L int, ops *Ops) (out []float64, args [][3]int) {
	t1, a1 := refMinPlusVecMat(f.W1, f.W2, L) // over ls -> per lb
	t2, a2 := refMinPlusVecMat(t1, f.W3, L)   // over lb -> per lc
	out, a3 := refMinPlusVecMat(t2, f.W4, L)  // over lc -> per lt
	ops.FlowOps += int64(3 * L * L)
	args = make([][3]int, L)
	for lt := 0; lt < L; lt++ {
		lc := a3[lt]
		lb := a2[lc]
		ls := a1[lb]
		args[lt] = [3]int{ls + 1, lb + 1, lc + 1}
	}
	return out, args
}

// reconstruct walks the DP choices top-down from the root, emitting the
// winning geometry: at each node the chosen via-stack interval, then for
// each child the chosen edge pattern at its chosen connection layer.
func (s *refSolver) reconstruct(u int, la int) {
	pick := s.downPick[u][la-1]
	if pick.lo == 0 {
		panic(fmt.Sprintf("pattern: net %d node %d has no feasible down choice at layer %d",
			s.tree.NetID, u, la))
	}
	pos := s.tree.Pos(u)
	s.addVia(pos, pick.lo, pick.hi)
	for idx, c := range s.tree.Children(u) {
		lc := pick.childLayers[idx]
		ls := s.emitEdge(int(c), lc)
		s.reconstruct(int(c), ls)
	}
}

// emitEdge appends the geometry of the edge (child -> parent) delivered at
// target layer lt and returns the source layer the child subtree connects at.
func (s *refSolver) emitEdge(child, lt int) int {
	prog := s.edgeProg[child]
	choice := s.edgeChoice[child][lt-1]
	src, dst := prog.TP.Source(), prog.TP.Target()
	switch {
	case choice.Cand < 0:
		bend := prog.LFlow.Bends[choice.Ls-1]
		s.addSeg(choice.Ls, src, bend)
		s.addVia(bend, choice.Ls, lt)
		s.addSeg(lt, bend, dst)
	case choice.Cand >= len(prog.ZFlows):
		f := &prog.SFlows[choice.Cand-len(prog.ZFlows)]
		s.addSeg(choice.Ls, src, f.B1)
		s.addVia(f.B1, choice.Ls, choice.Lb)
		s.addSeg(choice.Lb, f.B1, f.B2)
		s.addVia(f.B2, choice.Lb, choice.Lc)
		s.addSeg(choice.Lc, f.B2, f.B3)
		s.addVia(f.B3, choice.Lc, lt)
		s.addSeg(lt, f.B3, dst)
	default:
		f := &prog.ZFlows[choice.Cand]
		s.addSeg(choice.Ls, src, f.Bs)
		s.addVia(f.Bs, choice.Ls, choice.Lb)
		s.addSeg(choice.Lb, f.Bs, f.Bt)
		s.addVia(f.Bt, choice.Lb, lt)
		s.addSeg(lt, f.Bt, dst)
	}
	return choice.Ls
}

// addSeg records a wire piece, skipping zero-length ones.
func (s *refSolver) addSeg(l int, a, b geom.Point) {
	if a != b {
		s.pieces = append(s.pieces, grid.Run{A: a, B: b, Lo: l, Hi: l})
	}
}

// addVia records a via stack, skipping empty ones.
func (s *refSolver) addVia(p geom.Point, l1, l2 int) {
	if l1 != l2 {
		s.pieces = append(s.pieces, grid.Run{A: p, B: p, Lo: min(l1, l2), Hi: max(l1, l2)})
	}
}

// pieceCost prices the pieces one by one at the grid's current demand. Each
// DP term corresponds to exactly one piece, so this must equal the DP cost.
func pieceCost(g *grid.Graph, pieces []grid.Run) float64 {
	total := 0.0
	for _, p := range pieces {
		if p.Lo == p.Hi {
			total += g.SegCost(p.Lo, p.A, p.B)
		} else {
			total += g.ViaStackCost(p.A.X, p.A.Y, p.Lo, p.Hi)
		}
	}
	return total
}

// refEvalProgramSeq evaluates a program with plain sequential min-plus
// reductions, counting every inner-loop operation into ops.
func refEvalProgramSeq(p *EdgeProgram, ops *Ops) ([]float64, []Choice) {
	L := p.L
	if !p.Hybrid {
		out, arg := refMinPlusVecMat(p.LFlow.W1, p.LFlow.W2, L)
		ops.FlowOps += int64(L * L)
		choices := make([]Choice, L)
		for lt := 0; lt < L; lt++ {
			choices[lt] = Choice{Cand: -1, Ls: arg[lt] + 1}
		}
		return out, choices
	}

	val := make([]float64, L)
	choices := make([]Choice, L)
	for i := range val {
		val[i] = Inf
	}
	for ci := range p.ZFlows {
		f := &p.ZFlows[ci]
		tmp, argLs := refMinPlusVecMat(f.W1, f.W2, L)
		out, argLb := refMinPlusVecMat(tmp, f.W3, L)
		ops.FlowOps += int64(2 * L * L)
		for lt := 0; lt < L; lt++ {
			ops.FlowOps++ // merge step, eq. 10
			if out[lt] < val[lt] {
				lb := argLb[lt]
				val[lt] = out[lt]
				choices[lt] = Choice{Cand: ci, Ls: argLs[lb] + 1, Lb: lb + 1}
			}
		}
	}
	for si := range p.SFlows {
		out, args := refEvalSFlow(&p.SFlows[si], L, ops)
		for lt := 0; lt < L; lt++ {
			ops.FlowOps++ // merge step over the extended candidate set
			if out[lt] < val[lt] {
				a := args[lt]
				val[lt] = out[lt]
				choices[lt] = Choice{
					Cand: len(p.ZFlows) + si,
					Ls:   a[0], Lb: a[1], Lc: a[2],
				}
			}
		}
	}
	return val, choices
}

// refMinPlusVecMat computes out[j] = min_i w[i] + m[i*L+j] along with the
// argmin rows — the vector-matrix min-plus product at the heart of the
// computation-graph flows (eq. 7 / eq. 14). Inf entries propagate naturally.
func refMinPlusVecMat(w []float64, m []float64, L int) (out []float64, arg []int) {
	out = make([]float64, L)
	arg = make([]int, L)
	for j := 0; j < L; j++ {
		best, bi := Inf, 0
		for i := 0; i < L; i++ {
			if v := w[i] + m[i*L+j]; v < best {
				best, bi = v, i
			}
		}
		out[j] = best
		arg[j] = bi
	}
	return out, arg
}
