package pattern

import (
	"fmt"

	"fastgr/internal/geom"
)

// reconstruct walks the DP choices top-down from the root, adding the
// winning geometry to the solver's route builder: at each node the chosen
// via-stack interval, then for each child the chosen edge pattern at its
// chosen connection layer.
func (s *Solver) reconstruct(u int, la int) {
	pick := s.downPick[u*s.L+la-1]
	if pick.lo == 0 {
		panic(fmt.Sprintf("pattern: net %d node %d has no feasible down choice at layer %d",
			s.tree.NetID, u, la))
	}
	pos := s.tree.Nodes[u].Pos
	s.b.Via(pos.X, pos.Y, pick.lo, pick.hi)
	for _, c := range s.tree.Nodes[u].Children {
		ls := s.emitEdge(c, s.childLayer(c, pick.lo, pick.hi))
		s.reconstruct(c, ls)
	}
}

// emitEdge adds the geometry of the edge (child -> parent) delivered at
// target layer lt and returns the source layer the child subtree connects at.
func (s *Solver) emitEdge(child, lt int) int {
	prog := &s.edgeProg[child]
	choice := s.edgeChoice[child*s.L+lt-1]
	src, dst := prog.TP.Source(), prog.TP.Target()
	b := &s.b
	switch {
	case choice.Cand < 0:
		bend := prog.LFlow.Bends[choice.Ls-1]
		b.Seg(choice.Ls, src, bend)
		s.turn(bend, choice.Ls, lt)
		b.Seg(lt, bend, dst)
	case choice.Cand >= len(prog.ZFlows):
		f := &prog.SFlows[choice.Cand-len(prog.ZFlows)]
		b.Seg(choice.Ls, src, f.B1)
		s.turn(f.B1, choice.Ls, choice.Lb)
		b.Seg(choice.Lb, f.B1, f.B2)
		s.turn(f.B2, choice.Lb, choice.Lc)
		b.Seg(choice.Lc, f.B2, f.B3)
		s.turn(f.B3, choice.Lc, lt)
		b.Seg(lt, f.B3, dst)
	default:
		f := &prog.ZFlows[choice.Cand]
		b.Seg(choice.Ls, src, f.Bs)
		s.turn(f.Bs, choice.Ls, choice.Lb)
		b.Seg(choice.Lb, f.Bs, f.Bt)
		s.turn(f.Bt, choice.Lb, lt)
		b.Seg(lt, f.Bt, dst)
	}
	return choice.Ls
}

// turn adds the via stack at a bend joining layers l1 and l2, either order.
func (s *Solver) turn(p geom.Point, l1, l2 int) {
	s.b.Via(p.X, p.Y, min(l1, l2), max(l1, l2))
}
