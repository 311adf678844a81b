// Package viz renders routing state as standalone SVG documents: the 2-D
// congestion map, individual routed nets (layer-colored wires and via
// markers), and Steiner trees. Global-routing papers live and die by these
// pictures; the renderers here use only the standard library and write
// deterministic output, so golden files are stable.
package viz

import (
	"fmt"
	"io"
	"sort"

	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/route"
	"fastgr/internal/stt"
)

// cellPx is the size of one G-cell in SVG pixels.
const cellPx = 8

// layerColors assigns a stable color per metal layer (1-based; cycled).
var layerColors = []string{
	"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
	"#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
}

// LayerColor returns the drawing color of a metal layer.
func LayerColor(layer int) string {
	return layerColors[(layer-1)%len(layerColors)]
}

type svg struct {
	w    io.Writer
	errs []error
}

func (s *svg) printf(format string, args ...interface{}) {
	if _, err := fmt.Fprintf(s.w, format, args...); err != nil {
		s.errs = append(s.errs, err)
	}
}

func (s *svg) open(w, h int) {
	s.printf(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		w*cellPx, h*cellPx, w*cellPx, h*cellPx)
	s.printf(`<rect width="100%%" height="100%%" fill="#ffffff"/>` + "\n")
}

func (s *svg) close() error {
	s.printf("</svg>\n")
	if len(s.errs) > 0 {
		return s.errs[0]
	}
	return nil
}

func center(p geom.Point) (float64, float64) {
	return float64(p.X)*cellPx + cellPx/2, float64(p.Y)*cellPx + cellPx/2
}

// WriteCongestionSVG renders the collapsed 2-D utilization heat map: white
// (empty) through yellow to red (at or over capacity).
func WriteCongestionSVG(w io.Writer, g *grid.Graph) error {
	s := &svg{w: w}
	s.open(g.W, g.H)
	cells := g.CongestionMap2D()
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			c := cells[y*g.W+x]
			if c.Demand == 0 {
				continue
			}
			u := 1.0
			if c.Capacity > 0 {
				u = float64(c.Demand) / float64(c.Capacity)
			}
			if u > 1 {
				u = 1
			}
			// White -> yellow -> red ramp.
			var r, gr, b int
			if u < 0.5 {
				r, gr, b = 255, 255, int(255*(1-2*u))
			} else {
				r, gr, b = 255, int(255*(2-2*u)), 0
			}
			s.printf(`<rect x="%d" y="%d" width="%d" height="%d" fill="rgb(%d,%d,%d)"/>`+"\n",
				x*cellPx, y*cellPx, cellPx, cellPx, r, gr, b)
		}
	}
	return s.close()
}

// WriteRouteSVG renders one or more routed nets: one line per maximal wire
// run, colored by layer, one black circle per via stack, optional pin
// markers.
func WriteRouteSVG(w io.Writer, g *grid.Graph, routes []*route.NetRoute, pins []geom.Point3) error {
	s := &svg{w: w}
	s.open(g.W, g.H)
	var runs, wires []grid.Run
	var vias []geom.Point
	for _, r := range routes {
		if r == nil {
			continue
		}
		runs = g.AppendRuns(runs[:0], r.Edges())
		for _, run := range runs {
			if run.Lo == run.Hi {
				wires = append(wires, run)
			} else {
				vias = append(vias, run.A)
			}
		}
	}
	// Deterministic draw order: lower layers first so upper layers overlay.
	sort.SliceStable(wires, func(i, j int) bool { return wires[i].Lo < wires[j].Lo })
	for _, wr := range wires {
		x1, y1 := center(wr.A)
		x2, y2 := center(wr.B)
		s.printf(`<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="2.4" stroke-linecap="round"/>`+"\n",
			x1, y1, x2, y2, LayerColor(wr.Lo))
	}
	for _, v := range vias {
		x, y := center(v)
		s.printf(`<circle cx="%.1f" cy="%.1f" r="2.2" fill="#000000"/>`+"\n", x, y)
	}
	for _, p := range pins {
		x, y := center(p.P())
		s.printf(`<rect x="%.1f" y="%.1f" width="5" height="5" fill="none" stroke="#000000" stroke-width="1"/>`+"\n",
			x-2.5, y-2.5)
	}
	return s.close()
}

// WriteTreeSVG renders a Steiner tree: pins as squares, Steiner points as
// hollow circles, edges as gray lines.
func WriteTreeSVG(w io.Writer, gridW, gridH int, t *stt.Tree) error {
	s := &svg{w: w}
	s.open(gridW, gridH)
	for i := range t.Nodes {
		if p := t.Nodes[i].Parent; p >= 0 {
			x1, y1 := center(t.Nodes[i].Pos)
			x2, y2 := center(t.Nodes[p].Pos)
			s.printf(`<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#888888" stroke-width="1.6"/>`+"\n",
				x1, y1, x2, y2)
		}
	}
	for i := range t.Nodes {
		x, y := center(t.Nodes[i].Pos)
		if t.Nodes[i].IsPin() {
			s.printf(`<rect x="%.1f" y="%.1f" width="6" height="6" fill="#1f77b4"/>`+"\n", x-3, y-3)
		} else {
			s.printf(`<circle cx="%.1f" cy="%.1f" r="3" fill="none" stroke="#d62728" stroke-width="1.5"/>`+"\n", x, y)
		}
	}
	return s.close()
}
