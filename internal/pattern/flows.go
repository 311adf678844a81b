package pattern

import (
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/route"
)

// EdgeProgram is the computation-graph flow of one two-pin net: either a
// single L-shape flow (Fig. 8) or M+N candidate Z-shape flows plus a merge
// step (Figs. 9–10). Infeasible layer combinations carry Inf weights.
type EdgeProgram struct {
	TP     route.TwoPin
	L      int
	Hybrid bool // true when ZFlows drive the edge (hybrid/Z kernels)

	LFlow  LFlow
	ZFlows []ZFlow
	SFlows []SFlow // three-bend staircase candidates (Staircase mode)
}

// LFlow is the single-bend flow: out[lt] = min_ls W1[ls] + W2[ls][lt]
// (eq. 7). The bend point is implied by ls: a horizontal source layer runs
// x-first (bend at (t.x, s.y)), a vertical one y-first (bend at (s.x, t.y)).
type LFlow struct {
	W1    []float64    // L entries, eq. 5
	W2    []float64    // L*L row-major [ls][lt], eq. 6
	Bends []geom.Point // per ls: the bend position B(ls)
}

// ZFlow is one candidate two-bend flow i:
// out_i[lt] = min_{ls,lb} W1[ls] + W2[ls][lb] + W3[lb][lt] (eq. 14).
type ZFlow struct {
	W1 []float64 // L entries, eq. 11
	W2 []float64 // L*L [ls][lb], eq. 12
	W3 []float64 // L*L [lb][lt], eq. 13
	Bs geom.Point
	Bt geom.Point
}

// NumFlows reports how many candidate flows the program evaluates (the
// quantity the GPU occupancy model parallelizes over).
func (p *EdgeProgram) NumFlows() int {
	if p.Hybrid {
		return len(p.ZFlows) + len(p.SFlows)
	}
	return 1
}

// buildProgram assembles the flow of tp into the child's program slot: the
// candidate bend points first, then every flow's weights in one arena.
func (s *Solver) buildProgram(tp route.TwoPin) *EdgeProgram {
	L := s.L
	prog := &s.edgeProg[tp.Child]
	*prog = EdgeProgram{TP: tp, L: L}
	if s.useHybrid(tp) && s.zCandidates(prog) {
		if s.cfg.Mode == Staircase {
			s.stairCandidates(prog)
		}
		prog.Hybrid = true
		zw, sw := L+2*L*L, L+3*L*L
		s.w = grow(s.w, len(prog.ZFlows)*zw+len(prog.SFlows)*sw)
		w := s.w
		for i := range prog.ZFlows {
			s.buildZFlow(tp, &prog.ZFlows[i], w[:zw])
			w = w[zw:]
		}
		for i := range prog.SFlows {
			s.buildSFlow(tp, &prog.SFlows[i], w[:sw])
			w = w[sw:]
		}
		return prog
	}
	s.w = grow(s.w, L+L*L)
	s.buildLFlow(tp, &prog.LFlow, s.w)
	return prog
}

// segCosts fills dst with the cost of the straight run a-b on every layer,
// or Inf on layers whose preferred direction fights the run. A zero-length
// run costs zero on every layer. The bulk grid query answers each feasible
// layer from the cost cache's prefix sums when warm; the DP op accounting
// (one op per G-cell per feasible layer — the modeled-time currency) is
// unchanged from the per-layer walk: a layer's cost is finite exactly when
// its direction matches the run.
func (s *Solver) segCosts(a, b geom.Point, dst []float64) {
	s.g.SegCostsAllLayers(a, b, dst)
	dist := int64(geom.ManhattanDist(a, b))
	for _, c := range dst {
		if c < Inf {
			s.ops.FlowOps += dist
		}
	}
}

// legs returns the solver's four leg-cost scratch vectors.
func (s *Solver) legs() (a, b, c, d []float64) {
	L := s.L
	return s.seg[:L], s.seg[L : 2*L], s.seg[2*L : 3*L], s.seg[3*L : 4*L]
}

// fillRow sets row[b-1] to leg[b-1] plus the via stack a-b at a bend for
// every layer b the leg can use, and Inf elsewhere. A row entered at an Inf
// cost in can never win a min-plus, so it is all Inf, its via stacks never
// read. pfx is the bend's via prefix run (grid.ViaPrefix), read once per
// bend; nil falls back to ViaStackCost, the same value by a slower route.
func (s *Solver) fillRow(row []float64, in float64, a int, bend geom.Point, pfx, leg []float64) {
	for b := 1; b <= len(row); b++ {
		w := leg[b-1]
		if !(in < Inf) {
			w = Inf
		} else if w < Inf {
			switch {
			case pfx == nil:
				w += s.g.ViaStackCost(bend.X, bend.Y, a, b)
			case a < b:
				w += pfx[b-1] - pfx[a-1]
				s.viaReads++
			case a > b:
				w += pfx[a-1] - pfx[b-1]
				s.viaReads++
			}
		}
		row[b-1] = w
	}
}

// fillMatrix sets the L×L bend matrix m[a][b] = leg[b] + c_v(bend, a, b)
// (eqs. 12–13), in[a] being the cost arriving on layer a. FlowOps counts
// the whole matrix, as the device computes it.
func (s *Solver) fillMatrix(m []float64, in []float64, bend geom.Point, leg []float64) {
	L := s.L
	s.ops.FlowOps += int64(L * L)
	pfx := s.g.ViaPrefix(bend.X, bend.Y)
	for a := 1; a <= L; a++ {
		s.fillRow(m[(a-1)*L:a*L], in[a-1], a, bend, pfx, leg)
	}
}

// buildLFlow assembles the L-shape flow of eqs. 5–6 into w.
func (s *Solver) buildLFlow(tp route.TwoPin, f *LFlow, w []float64) {
	L := s.L
	src, dst := tp.Source(), tp.Target()
	down := s.down[tp.Child*L : tp.Child*L+L]

	b1 := geom.Point{X: dst.X, Y: src.Y} // x-first bend
	b2 := geom.Point{X: src.X, Y: dst.Y} // y-first bend
	seg1H, seg1V, seg2V, seg2H := s.legs()
	s.segCosts(src, b1, seg1H) // horizontal first leg
	s.segCosts(src, b2, seg1V) // vertical first leg
	s.segCosts(b1, dst, seg2V) // vertical second leg
	s.segCosts(b2, dst, seg2H) // horizontal second leg
	pfx1, pfx2 := s.g.ViaPrefix(b1.X, b1.Y), s.g.ViaPrefix(b2.X, b2.Y)

	start := len(s.bends)
	f.W1, f.W2 = w[:L], w[L:L+L*L]
	s.ops.FlowOps += int64(L * L)
	for ls := 1; ls <= L; ls++ {
		bend, leg1, leg2, pfx := b1, seg1H, seg2V, pfx1
		if s.g.Dir(ls) != grid.Horizontal {
			bend, leg1, leg2, pfx = b2, seg1V, seg2H, pfx2
		}
		s.bends = append(s.bends, bend)
		f.W1[ls-1] = down[ls-1] + leg1[ls-1]
		s.fillRow(f.W2[(ls-1)*L:ls*L], f.W1[ls-1], ls, bend, pfx, leg2)
	}
	f.Bends = s.bends[start:]
}

// zCandidates appends tp's candidate bend-point pairs to the net's flow
// arena and reports whether there are any. In Hybrid mode the bend
// columns/rows span the whole bounding box (M+N candidates, the two
// boundary ones degenerating into L shapes, Section III-F); in ZShape mode
// only the interior M+N-2 candidates are used, and a box too thin to have
// any falls back to L.
func (s *Solver) zCandidates(prog *EdgeProgram) bool {
	src, dst := prog.TP.Source(), prog.TP.Target()
	lox, hix := geom.Min(src.X, dst.X), geom.Max(src.X, dst.X)
	loy, hiy := geom.Min(src.Y, dst.Y), geom.Max(src.Y, dst.Y)

	interiorOnly := s.cfg.Mode == ZShape
	start := len(s.zflows)
	for xi := lox; xi <= hix; xi++ {
		if interiorOnly && (xi == src.X || xi == dst.X) {
			continue
		}
		s.zflows = append(s.zflows, ZFlow{Bs: geom.Point{X: xi, Y: src.Y}, Bt: geom.Point{X: xi, Y: dst.Y}})
	}
	for yi := loy; yi <= hiy; yi++ {
		if interiorOnly && (yi == src.Y || yi == dst.Y) {
			continue
		}
		s.zflows = append(s.zflows, ZFlow{Bs: geom.Point{X: src.X, Y: yi}, Bt: geom.Point{X: dst.X, Y: yi}})
	}
	prog.ZFlows = s.zflows[start:]
	return len(prog.ZFlows) > 0
}

// buildZFlow assembles eqs. 11–13 for one bend-point pair into w.
func (s *Solver) buildZFlow(tp route.TwoPin, f *ZFlow, w []float64) {
	L := s.L
	src, dst := tp.Source(), tp.Target()
	down := s.down[tp.Child*L : tp.Child*L+L]

	seg1, seg2, seg3, _ := s.legs()
	s.segCosts(src, f.Bs, seg1)
	s.segCosts(f.Bs, f.Bt, seg2)
	s.segCosts(f.Bt, dst, seg3)

	f.W1, f.W2, f.W3 = w[:L], w[L:L+L*L], w[L+L*L:]
	for ls := 1; ls <= L; ls++ {
		f.W1[ls-1] = down[ls-1] + seg1[ls-1]
	}
	s.fillMatrix(f.W2, f.W1, f.Bs, seg2)
	// A middle layer the middle leg cannot use reaches Bt at Inf.
	s.fillMatrix(f.W3, seg2, f.Bt, seg3)
}
