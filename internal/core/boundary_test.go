package core

import (
	"fmt"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/geom"
)

// CrossDesign is a crafted worst case for the cut plan: every net's
// bounding box straddles both the vertical and the horizontal center
// cuts, so nothing is intra-leaf and every net routes as a boundary net.
// Capacities are tight enough to leave rip-up work. Exported for the
// external determinism tests.
func CrossDesign() *design.Design {
	d := &design.Design{
		Name:          "crossall",
		GridW:         64,
		GridH:         64,
		NumLayers:     5,
		LayerCapacity: []int{0, 3, 3, 4, 4},
		ViaCapacity:   6,
	}
	for i := 0; i < 48; i++ {
		n := &design.Net{ID: i, Name: fmt.Sprintf("x%d", i)}
		// Pins on all four sides of the center, so the bbox spans both
		// cut axes regardless of where the pin-median cut lands.
		n.Pins = []design.Pin{
			{Pos: geom.Point{X: 4 + i%9, Y: 28 + i%7}, Layer: 1},
			{Pos: geom.Point{X: 58 - i%11, Y: 30 + i%5}, Layer: 1 + i%2},
			{Pos: geom.Point{X: 29 + i%5, Y: 3 + i%13}, Layer: 1},
			{Pos: geom.Point{X: 31 - i%3, Y: 60 - i%9}, Layer: 1 + (i/2)%2},
		}
		d.Nets = append(d.Nets, n)
	}
	return d
}

// TestBoundaryRoutesStayInWindow checks the soundness of the boundary
// passes' conflict model. A boundary task's rip-up reads and writes its
// net's committed route, and its search and commit stay in the net's maze
// window, so two tasks with disjoint windows touch disjoint edges only if
// every boundary net's committed route lies inside its maze window
// whenever a pass starts or ends. The first pass's start checks the
// pattern-routed boundary nets.
func TestBoundaryRoutesStayInWindow(t *testing.T) {
	for _, d := range []*design.Design{design.MustGenerate("18test5m", testScale), CrossDesign()} {
		for _, v := range []Variant{CUGR, FastGRL, FastGRH} {
			checks, checked := 0, 0
			boundaryPassProbe = func(r *runner) {
				checks++
				for _, n := range r.d.Nets {
					rt := r.routes[n.ID]
					if r.leafOf(n.ID) >= 0 || rt == nil {
						continue
					}
					checked++
					win := r.mazeWindow(n)
					for _, e := range rt.Edges() {
						if a, b := r.g.EdgeEnds(e); !win.Contains(a.P()) || !win.Contains(b.P()) {
							t.Fatalf("%s/%v check %d: net %s edge %v-%v leaves its maze window %v", d.Name, v, checks, n.Name, a, b, win)
						}
					}
				}
			}
			opt := DefaultOptions(v)
			opt.T1, opt.T2 = 4, 40
			opt.Shards = 2
			res, err := Route(d, opt)
			boundaryPassProbe = nil
			if err != nil {
				t.Fatal(err)
			}
			// Each iteration's pass start and end.
			if want := 2 * len(res.Report.RRR); checks != want || checked == 0 {
				t.Fatalf("%s/%v: %d probes over %d routes for %d iterations; want %d", d.Name, v, checks, checked, len(res.Report.RRR), want)
			}
		}
	}
}
