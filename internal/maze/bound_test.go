package maze

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fastgr/internal/geom"
	"fastgr/internal/grid"
)

// refBound is the state oracle's heuristic input: nil when the engagement
// rule leaves the window alone, else refPotential — a full flood per pass,
// so the Search's incremental reopening is held to it as well.
func refBound(g *grid.Graph, win geom.Rect, targets []geom.Point3) []float64 {
	if engage, _ := congested(g, win); !engage {
		return nil
	}
	return refPotential(g, win, targets)
}

// refPotential is the plane potential computed from its definition and
// nothing of bound.go but boundScale: every plane edge priced through the
// graph's WireCost at its cheapest same-direction layer times boundScale,
// settled from every target's cell with container/heap. A potential is
// the unique fixed point of phi(v) = min over neighbours u of
// phi(u) + price(u, v) (0 at a target's cell), so any exact shortest-path
// order yields the same bits.
func refPotential(g *grid.Graph, win geom.Rect, targets []geom.Point3) []float64 {
	ww, wh := win.Width(), win.Height()
	price := func(dir grid.Dir, x, y int) float64 {
		best := math.Inf(1)
		for l := 1; l <= g.L; l++ {
			if g.Dir(l) == dir {
				best = min(best, g.WireCost(l, x, y))
			}
		}
		return best * boundScale
	}
	phi := make([]float64, ww*wh)
	for c := range phi {
		phi[c] = math.Inf(1)
	}
	h := &refPlaneHeap{}
	for _, t := range targets {
		c := (t.Y-win.Lo.Y)*ww + t.X - win.Lo.X
		phi[c] = 0
		heap.Push(h, refPlaneItem{0, c})
	}
	for h.Len() > 0 {
		it := heap.Pop(h).(refPlaneItem)
		if it.d > phi[it.c] {
			continue
		}
		x, y := win.Lo.X+it.c%ww, win.Lo.Y+it.c/ww
		offer := func(c int, d float64) {
			if d < phi[c] {
				phi[c] = d
				heap.Push(h, refPlaneItem{d, c})
			}
		}
		if x < win.Hi.X {
			offer(it.c+1, it.d+price(grid.Horizontal, x, y))
		}
		if x > win.Lo.X {
			offer(it.c-1, it.d+price(grid.Horizontal, x-1, y))
		}
		if y < win.Hi.Y {
			offer(it.c+ww, it.d+price(grid.Vertical, x, y))
		}
		if y > win.Lo.Y {
			offer(it.c-ww, it.d+price(grid.Vertical, x, y-1))
		}
	}
	return phi
}

type refPlaneItem struct {
	d float64
	c int
}

type refPlaneHeap []refPlaneItem

func (h refPlaneHeap) Len() int           { return len(h) }
func (h refPlaneHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h refPlaneHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refPlaneHeap) Push(x any)        { *h = append(*h, x.(refPlaneItem)) }
func (h *refPlaneHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// engagedSearch binds a fresh Search to win of g with the given remaining
// targets and runs the first flood, as RouteNet does for an engaged net.
func engagedSearch(g *grid.Graph, win geom.Rect, targets []geom.Point3) *Search {
	s := NewSearch()
	s.bind(g, g.CostField(), win)
	s.hWire, s.hVia = g.Params.UnitWire, g.Params.UnitVia
	s.targets = append(s.targets, targets...)
	s.buildPlane()
	s.settlePlane()
	return s
}

// checkStrictlyConsistent checks the A* heuristic of s over every 3-D edge
// of its window: h(p) < c(p, n) + h(n) in floats, both ways, and h = 0 at
// every remaining target.
func checkStrictlyConsistent(t *testing.T, g *grid.Graph, s *Search) {
	t.Helper()
	win := s.win
	for _, tg := range s.targets {
		if h := s.heuristic(tg.X, tg.Y, tg.Layer); h != 0 {
			t.Fatalf("h = %v at remaining target %v", h, tg)
		}
	}
	edge := func(a, b geom.Point3, c float64) {
		ha, hb := s.heuristic(a.X, a.Y, a.Layer), s.heuristic(b.X, b.Y, b.Layer)
		if !(ha < c+hb) || !(hb < c+ha) {
			t.Fatalf("edge %v-%v cost %v: h %v and %v are not strictly consistent", a, b, c, ha, hb)
		}
	}
	for l := 1; l <= g.L; l++ {
		for y := win.Lo.Y; y <= win.Hi.Y; y++ {
			for x := win.Lo.X; x <= win.Hi.X; x++ {
				p := geom.Point3{X: x, Y: y, Layer: l}
				if g.Dir(l) == grid.Horizontal && x < win.Hi.X {
					edge(p, geom.Point3{X: x + 1, Y: y, Layer: l}, g.WireCost(l, x, y))
				}
				if g.Dir(l) == grid.Vertical && y < win.Hi.Y {
					edge(p, geom.Point3{X: x, Y: y + 1, Layer: l}, g.WireCost(l, x, y))
				}
				if l < g.L {
					edge(p, geom.Point3{X: x, Y: y, Layer: l + 1}, g.ViaEdgeCost(x, y, l))
				}
			}
		}
	}
}

// planePhi is the potential column of s's plane.
func planePhi(s *Search) []float64 {
	phi := make([]float64, len(s.plane))
	for c, pc := range s.plane {
		phi[c] = pc.phi
	}
	return phi
}

// TestBoundStrictlyConsistent is the bound's property test: on random
// congested grids at 2, 5 and 9 layers and random windows and targets, the
// heuristic with the plane potential is strictly consistent on every 3-D
// edge and 0 at every remaining target — the two facts DESIGN.md's
// identity argument uses. Then targets are reached one by one: after each
// reopening the incremental flood must equal a full flood over the
// targets that remain, bit for bit, and stay strictly consistent.
func TestBoundStrictlyConsistent(t *testing.T) {
	for _, layers := range []int{2, 5, 9} {
		rng := rand.New(rand.NewSource(int64(7 * layers)))
		g := oracleGrid(t, 30, 26, layers, grid.DefaultCostParams())
		g.WarmCostCache()
		congest(g, rng, 900*layers)
		g.WarmCostCache()
		for trial := 0; trial < 30; trial++ {
			win := randomWindow(rng, g, trial%4)
			targets := randomPins(rng, g, win, 1+rng.Intn(6), trial%3 == 0)
			s := engagedSearch(g, win, targets)
			for {
				checkStrictlyConsistent(t, g, s)
				if got, want := planePhi(s), refPotential(g, win, s.targets); !slices.Equal(got, want) {
					t.Fatalf("L%d trial %d: potential over %v differs from a full flood", layers, trial, s.targets)
				}
				at := s.targets[rng.Intn(len(s.targets))]
				if s.dropTarget(at); len(s.targets) == 0 {
					break
				}
				s.reopen(at.X, at.Y)
				s.settlePlane()
			}
		}
	}
}

// TestBoundEngagement pins the engagement rule at both ends: an idle grid
// never engages, a saturated one does, and RouteNet counts what the bound
// did — one bound pass per pass, and plane cells settled — and drops the
// plane when it returns, budget trip included.
func TestBoundEngagement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := oracleGrid(t, 30, 26, 5, grid.DefaultCostParams())
	g.WarmCostCache()
	win := fullWindow(g)
	pins := randomPins(rng, g, win, 4, false)
	if engage, _ := congested(g, win); engage {
		t.Fatal("an idle grid engaged the bound")
	}
	_, st, err := NewSearch().RouteNet(g, 1, pins, win)
	if err != nil {
		t.Fatal(err)
	}
	if st.BoundPasses != 0 || st.BoundCells != 0 {
		t.Fatalf("idle grid: stats %+v, want no bound work", st)
	}
	congest(g, rng, 6000)
	g.WarmCostCache()
	if engage, _ := congested(g, win); !engage {
		t.Fatal("a saturated grid did not engage the bound")
	}
	s := NewSearch()
	_, st, err = s.RouteNet(g, 1, pins, win)
	if err != nil {
		t.Fatal(err)
	}
	if st.BoundPasses != 3 || st.BoundCells < int64(win.Area()) {
		t.Fatalf("saturated grid: stats %+v, want 3 bound passes and at least one full flood (%d cells)", st, win.Area())
	}
	if s.plane != nil {
		t.Fatal("the plane outlived its RouteNet call")
	}
	s.SetBudget(st.Expansions / 2)
	if _, _, err := s.RouteNet(g, 1, pins, win); err == nil || s.plane != nil {
		t.Fatalf("budget trip: err %v, plane kept %v", err, s.plane != nil)
	}
	dij := NewSearch()
	dij.SetAlgorithm(Dijkstra)
	if _, st, err = dij.RouteNet(g, 1, pins, win); err != nil || st.BoundPasses != 0 {
		t.Fatalf("dijkstra: stats %+v err %v, want no bound work", st, err)
	}
}
