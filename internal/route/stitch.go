package route

import (
	"fastgr/internal/geom"
	"fastgr/internal/grid"
)

// Crossing is a grid step between two adjacent G-cells in different shard
// regions; it mirrors shard.Crossing without importing that package (route
// sits below shard in the dependency order).
type Crossing struct {
	A, B geom.Point
}

// StitchFragments reassembles a boundary net from its per-shard fragment
// routes: the fragments' edges are merged verbatim, then every crossing edge
// — the one-step halo connections the splitter cut at — is realized on a
// deterministically chosen layer with the via stacks needed to reach the
// fragment geometry on both sides.
//
// The crossing layer minimizes, at the grid's current demand,
//
//	via(A: la -> l) + wire(l, A-B) + via(B: l -> lb)
//
// over the layers whose preferred direction matches the step, where la/lb
// are the lowest layers already carrying the net at A/B (fragment edges
// added so far, earlier crossings included, plus the net's own pins);
// ties break to the lowest layer. Crossings are processed in the order
// given, each seeing its predecessors' geometry, so the result is a pure
// function of (grid state, fragments, crossings) — the stitching pass runs
// at a sequential coordinator point in canonical net order, which is what
// makes it shard-count-invariant.
//
// The returned route is not committed; the caller commits it like any other.
func StitchFragments(g *grid.Graph, netID int, pins []geom.Point3, frags []*NetRoute, crossings []Crossing) *NetRoute {
	var b Builder
	b.Reset(g, netID)
	for _, f := range frags {
		if f != nil {
			b.AddRoute(f)
		}
	}
	for _, cr := range crossings {
		la := lowestLayerAt(g, b.edges, pins, cr.A)
		lb := lowestLayerAt(g, b.edges, pins, cr.B)
		horiz := cr.A.Y == cr.B.Y
		bestL, bestCost := 0, 0.0
		for l := 1; l <= g.L; l++ {
			if (g.Dir(l) == grid.Horizontal) != horiz {
				continue
			}
			c := g.SegCost(l, cr.A, cr.B)
			if la > 0 {
				c += g.ViaStackCost(cr.A.X, cr.A.Y, la, l)
			}
			if lb > 0 {
				c += g.ViaStackCost(cr.B.X, cr.B.Y, l, lb)
			}
			if bestL == 0 || c < bestCost {
				bestL, bestCost = l, c
			}
		}
		if la > 0 {
			b.Via(cr.A.X, cr.A.Y, min(la, bestL), max(la, bestL))
		}
		b.Seg(bestL, cr.A, cr.B)
		if lb > 0 {
			b.Via(cr.B.X, cr.B.Y, min(lb, bestL), max(lb, bestL))
		}
	}
	return b.Build()
}

// lowestLayerAt returns the lowest layer at which one of the edges (or one
// of the net's pins) touches position pos; 0 when nothing does. A via
// stack's lowest edge starts at its lowest layer, so edge ends see what the
// stack touches.
func lowestLayerAt(g *grid.Graph, edges []grid.EdgeID, pins []geom.Point3, pos geom.Point) int {
	best := 0
	touch := func(p geom.Point3) {
		if p.P() == pos && (best == 0 || p.Layer < best) {
			best = p.Layer
		}
	}
	for _, e := range edges {
		a, b := g.EdgeEnds(e)
		touch(a)
		touch(b)
	}
	for _, pin := range pins {
		touch(pin)
	}
	return best
}
