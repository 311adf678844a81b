package maze

import (
	"math"

	"fastgr/internal/geom"
	"fastgr/internal/grid"
)

// The congestion-aware bound. The L1 term of heuristic prices every step
// at the unit cost and ignores the congestion term, which in a congested
// window is most of an edge's cost, so a pass there settles most of its
// window. An engaged net adds a potential over the window's G-cell plane:
// each plane edge is priced at the cheapest same-direction layer's edge
// times boundScale, and a multi-target Dijkstra from the remaining
// targets' cells (the flood) gives every cell its distance phi. A 3-D path
// projects onto a plane path (a wire edge onto its plane edge, a via onto
// nothing) whose price is at most boundScale times the path's wire cost,
// and it crosses at least the layer gap to the nearest target layer in
// vias; heuristic adds that gap at boundScale·UnitVia a layer. The sum
// bounds the remaining cost from below and is strictly consistent: across
// a wire edge it changes by less than the edge's cost, across a via by at
// most boundScale·UnitVia. DESIGN.md "Congestion-aware bound" carries the
// identity argument and the engagement rule.

const (
	// boundScale is 1 − 2⁻¹⁰. It leaves every wire edge a 1024th of its
	// cost, and every via a 1024th of UnitVia, above the bound's step
	// across it, which is what keeps A* bit-identical to Dijkstra in
	// floats: a path cost sums at most a few thousand edges below 1e6, so
	// its rounding error stays three orders of magnitude under one edge's
	// margin.
	boundScale = 1 - 1.0/1024

	// boundMinExcess and boundHotLines are the engagement rule: a window
	// line (a row for horizontal layers, a column for vertical ones) is
	// hot when its cheapest layer's run across the window costs more than
	// UnitWire + boundMinExcess per edge, and a net engages the bound when
	// more than boundHotLines of its window's lines are hot. Below that
	// the L1 term is nearly as tight and the flood costs more cells than
	// it saves expansions (DESIGN.md gives the histogram).
	boundMinExcess = 0.5
	boundHotLines  = 0.40
)

// planeCell is one G-cell of an engaged net's plane.
type planeCell struct {
	phi float64 // the potential: scaled plane distance to the nearest remaining target's cell
	// east and north price the plane edges to (x+1, y) and (x, y+1): the
	// cheapest same-direction layer's edge times boundScale, +Inf where
	// the window has no such edge.
	east, north float64
	label       int32  // plane index of the target cell whose flood set phi; -1 before any
	word        uint32 // the flood epoch that may still lower phi, | settledBit once settled
}

// congested is the bound's engagement rule for window win of g: more than
// boundHotLines of the window's lines are hot. It reads one prefix-run
// difference per layer and line (WarmedSegCost), never an edge value, so
// it costs O(layers × lines) and depends only on the field as the last
// warm left it. reads is what it read.
func congested(g *grid.Graph, win geom.Rect) (engage bool, reads int64) {
	inf := math.Inf(1)
	hot, lines := 0, 0
	line := func(dir grid.Dir, a, b geom.Point, n int) {
		best := inf
		for l := 1; l <= g.L; l++ {
			if g.Dir(l) != dir {
				continue
			}
			reads++
			if c, ok := g.WarmedSegCost(l, a, b); ok && c < best {
				best = c
			}
		}
		if best < inf {
			lines++
			if best > (g.Params.UnitWire+boundMinExcess)*float64(n) {
				hot++
			}
		}
	}
	if n := win.Width() - 1; n > 0 {
		for y := win.Lo.Y; y <= win.Hi.Y; y++ {
			line(grid.Horizontal, geom.Point{X: win.Lo.X, Y: y}, geom.Point{X: win.Hi.X, Y: y}, n)
		}
	}
	if n := win.Height() - 1; n > 0 {
		for x := win.Lo.X; x <= win.Hi.X; x++ {
			line(grid.Vertical, geom.Point{X: x, Y: win.Lo.Y}, geom.Point{X: x, Y: win.Hi.Y}, n)
		}
	}
	return float64(hot) > boundHotLines*float64(lines), reads
}

// buildPlane allocates the plane of the bound window, prices its edges
// from the cost field and seeds the first flood with every remaining
// target's cell at potential 0. Every cell starts open at +Inf.
func (s *Search) buildPlane() {
	g, f, win, ww, wh := s.g, &s.f, s.win, s.ww, s.wh
	inf := math.Inf(1)
	cells := make([]planeCell, ww*wh)
	for c := range cells {
		cells[c] = planeCell{phi: inf, east: inf, north: inf, label: -1, word: epochStep}
	}
	for l := 1; l <= g.L; l++ {
		val := f.Wire[l-1]
		if g.Dir(l) == grid.Horizontal && ww > 1 {
			for y := 0; y < wh; y++ {
				row := cells[y*ww : (y+1)*ww-1]
				for x, v := range val[f.WireSlot(l, win.Lo.X, win.Lo.Y+y):][:ww-1] {
					row[x].east = min(row[x].east, v)
				}
			}
			s.reads += int64((ww - 1) * wh)
		} else if g.Dir(l) == grid.Vertical && wh > 1 {
			for x := 0; x < ww; x++ {
				for y, v := range val[f.WireSlot(l, win.Lo.X+x, win.Lo.Y):][:wh-1] {
					pc := &cells[y*ww+x]
					pc.north = min(pc.north, v)
				}
			}
			s.reads += int64(ww * (wh - 1))
		}
	}
	for c := range cells {
		cells[c].east *= boundScale
		cells[c].north *= boundScale
	}
	s.plane, s.planeEpoch = cells, epochStep
	s.q.reset()
	for _, t := range s.targets {
		c := s.cell(t.X, t.Y)
		if pc := &cells[c]; pc.phi != 0 {
			pc.phi, pc.label = 0, c
			s.q.push(qItem{node: c})
		}
	}
}

// cell is the plane index of G-cell (x, y) of the window.
func (s *Search) cell(x, y int) int32 {
	return int32((y-s.win.Lo.Y)*s.ww + x - s.win.Lo.X)
}

// settlePlane runs the flood the queue was seeded with to completion and
// returns the cells it settled. Only cells stamped with the current epoch
// are open; every other cell's potential is final.
func (s *Search) settlePlane() int64 {
	cells, q, open := s.plane, &s.q, s.planeEpoch
	ww, n := int32(s.ww), int32(len(cells))
	var settled int64
	for !q.empty() {
		c := q.pop().node
		pc := &cells[c]
		if pc.word != open {
			continue
		}
		pc.word |= settledBit
		settled++
		d, lab, x := pc.phi, pc.label, c%ww
		if x+1 < ww {
			s.relaxCell(c+1, d+pc.east, lab)
		}
		if x > 0 {
			s.relaxCell(c-1, d+cells[c-1].east, lab)
		}
		if c+ww < n {
			s.relaxCell(c+ww, d+pc.north, lab)
		}
		if c >= ww {
			s.relaxCell(c-ww, d+cells[c-ww].north, lab)
		}
	}
	return settled
}

// relaxCell offers open cell c potential d from a flood labelled label.
func (s *Search) relaxCell(c int32, d float64, label int32) {
	if pc := &s.plane[c]; pc.word == s.planeEpoch && d < pc.phi {
		pc.phi, pc.label = d, label
		s.q.push(qItem{k: math.Float64bits(d), node: c})
	}
}

// reopen readies the flood for the next pass once the target at G-cell
// (x, y) has been reached and dropped. Unless a remaining target shares
// the cell, the cells whose potential came from it — and only those — are
// reopened at +Inf under a new epoch, seeded from their neighbours outside
// that region and left on the queue for settlePlane. Every other cell
// keeps its potential: it came from a target that remains, and dropping a
// target can only raise a potential.
func (s *Search) reopen(x, y int) {
	s.q.reset() // drop what the 3-D pass left: settlePlane drains the queue
	for _, t := range s.targets {
		if t.X == x && t.Y == y {
			return
		}
	}
	lab := s.cell(x, y)
	s.planeEpoch += epochStep
	cells, open, inf := s.plane, s.planeEpoch, math.Inf(1)
	for c := range cells {
		if cells[c].label == lab {
			cells[c].phi, cells[c].word = inf, open
		}
	}
	ww, n := int32(s.ww), int32(len(cells))
	for c := int32(0); c < n; c++ {
		pc := &cells[c]
		if pc.word != open {
			continue
		}
		x := c % ww
		if x+1 < ww {
			seedCell(pc, &cells[c+1], pc.east, open)
		}
		if x > 0 {
			seedCell(pc, &cells[c-1], cells[c-1].east, open)
		}
		if c+ww < n {
			seedCell(pc, &cells[c+ww], pc.north, open)
		}
		if c >= ww {
			seedCell(pc, &cells[c-ww], cells[c-ww].north, open)
		}
		if pc.phi < inf {
			s.q.push(qItem{k: math.Float64bits(pc.phi), node: c})
		}
	}
}

// seedCell lowers reopened cell pc to its path through neighbour nb when
// nb lies outside the reopened region, whose potentials are final.
func seedCell(pc, nb *planeCell, price float64, open uint32) {
	if d := nb.phi + price; nb.word < open && d < pc.phi {
		pc.phi, pc.label = d, nb.label
	}
}
