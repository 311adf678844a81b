package pattern

import (
	"fmt"

	"fastgr/internal/route"
)

// reconstruct walks the DP choices top-down from the root, emitting the
// winning geometry: at each node the chosen via-stack interval, then for
// each child the chosen edge pattern at its chosen connection layer.
func (s *Solver) reconstruct(r *route.NetRoute, u int, la int) {
	pick := s.downPick[u*s.L+la-1]
	if pick.lo == 0 {
		panic(fmt.Sprintf("pattern: net %d node %d has no feasible down choice at layer %d",
			s.tree.NetID, u, la))
	}
	pos := s.tree.Nodes[u].Pos
	var p route.Path
	p.AddVia(pos.X, pos.Y, pick.lo, pick.hi)
	if len(p.Vias) > 0 {
		r.Paths = append(r.Paths, p)
	}
	for _, c := range s.tree.Nodes[u].Children {
		ls := s.emitEdge(r, c, s.childLayer(c, pick.lo, pick.hi))
		s.reconstruct(r, c, ls)
	}
}

// emitEdge appends the geometry of the edge (child -> parent) delivered at
// target layer lt and returns the source layer the child subtree connects at.
func (s *Solver) emitEdge(r *route.NetRoute, child, lt int) int {
	prog := &s.edgeProg[child]
	choice := s.edgeChoice[child*s.L+lt-1]
	src, dst := prog.TP.Source(), prog.TP.Target()
	var p route.Path
	switch {
	case choice.Cand < 0:
		bend := prog.LFlow.Bends[choice.Ls-1]
		p.AddSeg(choice.Ls, src, bend)
		p.AddVia(bend.X, bend.Y, choice.Ls, lt)
		p.AddSeg(lt, bend, dst)
	case choice.Cand >= len(prog.ZFlows):
		f := &prog.SFlows[choice.Cand-len(prog.ZFlows)]
		p.AddSeg(choice.Ls, src, f.B1)
		p.AddVia(f.B1.X, f.B1.Y, choice.Ls, choice.Lb)
		p.AddSeg(choice.Lb, f.B1, f.B2)
		p.AddVia(f.B2.X, f.B2.Y, choice.Lb, choice.Lc)
		p.AddSeg(choice.Lc, f.B2, f.B3)
		p.AddVia(f.B3.X, f.B3.Y, choice.Lc, lt)
		p.AddSeg(lt, f.B3, dst)
	default:
		f := &prog.ZFlows[choice.Cand]
		p.AddSeg(choice.Ls, src, f.Bs)
		p.AddVia(f.Bs.X, f.Bs.Y, choice.Ls, choice.Lb)
		p.AddSeg(choice.Lb, f.Bs, f.Bt)
		p.AddVia(f.Bt.X, f.Bt.Y, choice.Lb, lt)
		p.AddSeg(lt, f.Bt, dst)
	}
	if len(p.Segs) > 0 || len(p.Vias) > 0 {
		r.Paths = append(r.Paths, p)
	}
	return choice.Ls
}
