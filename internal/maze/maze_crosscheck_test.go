package maze

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/pattern"
	"fastgr/internal/route"
	"fastgr/internal/stt"
)

// TestMazeNeverWorseThanPattern cross-validates the two routers: on a full
// window the maze explores a superset of every L/Z/hybrid pattern, so its
// path cost can never exceed the pattern DP's optimum for a two-pin net.
func TestMazeNeverWorseThanPattern(t *testing.T) {
	d := design.MustGenerate("18test5m", 0.002)
	g := warm(grid.NewFromDesign(d))
	rng := rand.New(rand.NewSource(5))
	// Random congestion so the comparison is not on a uniform grid.
	for i := 0; i < 400; i++ {
		l := 2 + rng.Intn(3)
		x, y := rng.Intn(g.W-1), rng.Intn(g.H-1)
		if g.HasWireEdge(l, x, y) {
			if g.Dir(l) == grid.Horizontal {
				g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x + 1, Y: y}, rng.Intn(10))
			} else {
				g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x, Y: y + 1}, rng.Intn(10))
			}
		}
	}
	win := geom.Rect{Lo: geom.Point{X: 0, Y: 0}, Hi: geom.Point{X: g.W - 1, Y: g.H - 1}}

	checked := 0
	for _, net := range d.Nets {
		if len(net.Points()) != 2 || checked >= 40 {
			continue
		}
		checked++
		tree := stt.Build(net)
		pins := route.PinTerminals(tree)

		pat := pattern.SolveCPU(g, tree, pattern.Config{Mode: pattern.Hybrid})
		mz, _, err := RouteNet(g, net.ID, pins, win)
		if err != nil {
			t.Fatalf("net %s: %v", net.Name, err)
		}
		pc := pat.Route.Cost(g)
		mc := mz.Cost(g)
		if mc > pc+1e-6 {
			t.Fatalf("net %s: maze cost %v exceeds pattern cost %v", net.Name, mc, pc)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d two-pin nets checked", checked)
	}
}

// TestAStarMatchesDijkstraBitIdentical is the A*/cost-cache cross-check:
// on randomized congested grids, A* guided by the admissible unit-cost
// bound must produce bit-identical geometry (equal sealed edge lists)
// and exactly equal cost to the seed Dijkstra, while settling no more
// nodes — both on a view warmed over each net's window alone ("cold", the
// windowed field) and on the whole grid's field — and A* on a shared frame
// must equal A* on records of its own, stats included. The "flat" case
// prices congestion at 1e-11: the slack that keeps f climbing along a path
// is then of the order of one rounding step, so keys tie exactly and now
// and then regress, and pushes keyed at or below the queue's last key —
// its fallback path — happen end to end. (At 1e-6 no
// key ever does; from 1e-12 down rounding outweighs the slack and A* and
// Dijkstra stop agreeing on equal-cost geometry, with any exact queue.)
// The "hot" rows load the grid until the congestion-aware bound engages:
// each must show bound passes in the A* stats, with the same geometry.
func TestAStarMatchesDijkstraBitIdentical(t *testing.T) {
	d := design.MustGenerate("18test5m", 0.003)
	flat := grid.DefaultCostParams()
	flat.UnitWire, flat.CongestionWeight = 0.3, 1e-11
	for _, tc := range []struct {
		name   string
		perNet bool // a fresh window view per net instead of the full field
		params grid.CostParams
		load   int // random demand additions on layers 2-4
		hot    bool
	}{
		{"cold", true, grid.DefaultCostParams(), 400, false},
		{"warm", false, grid.DefaultCostParams(), 400, false},
		{"flat", false, flat, 400, false},
		{"hot-cold", true, grid.DefaultCostParams(), 8000, true},
		{"hot-warm", false, grid.DefaultCostParams(), 8000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := grid.NewFromDesignParams(d, tc.params)
			rng := rand.New(rand.NewSource(17))
			for i := 0; i < tc.load; i++ {
				l := 2 + rng.Intn(3)
				x, y := rng.Intn(g.W-1), rng.Intn(g.H-1)
				if g.HasWireEdge(l, x, y) {
					if g.Dir(l) == grid.Horizontal {
						g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x + 1, Y: y}, rng.Intn(10))
					} else {
						g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x, Y: y + 1}, rng.Intn(10))
					}
				}
			}
			if !tc.perNet {
				g.WarmCostCache()
				if g.CostField() == nil {
					t.Fatal("WarmCostCache did not build the cache")
				}
			}

			ast, dij := NewSearch(), NewSearch()
			dij.SetAlgorithm(Dijkstra)
			// fra is A* on a shared frame over the grid: same routes, same
			// stats as the lane with records of its own.
			frame, fra := new(Frame), NewSearch()
			frame.Bind(fullWindow(g), g.L, 1<<20)
			fra.UseFrame(frame)
			// Count the A* pushes that find no bucket: keyed at, and
			// strictly below, the queue's last redistribution key.
			at, below := 0, 0
			ast.trace = func(push bool, it qItem) {
				if push && it.k == ast.q.last {
					at++
				} else if push && it.k < ast.q.last {
					below++
				}
			}
			checked, bound := 0, int64(0)
			for _, net := range d.Nets {
				if checked >= 50 {
					break
				}
				checked++
				tree := stt.Build(net)
				pins := route.PinTerminals(tree)
				win := net.BBox().Inflate(6).ClampTo(g.W, g.H)
				sg := g
				if tc.perNet {
					sg = g.WindowView(win)
					sg.WarmCostCache()
				}

				ra, sa, err := ast.RouteNet(sg, net.ID, pins, win)
				if err != nil {
					t.Fatalf("net %s astar: %v", net.Name, err)
				}
				rd, sd, err := dij.RouteNet(sg, net.ID, pins, win)
				if err != nil {
					t.Fatalf("net %s dijkstra: %v", net.Name, err)
				}
				rf, sf, err := fra.RouteNet(sg, net.ID, pins, win)
				if err != nil {
					t.Fatalf("net %s astar on a frame: %v", net.Name, err)
				}
				if sf != sa || !slices.Equal(rf.Edges(), ra.Edges()) {
					t.Fatalf("net %s: astar on a frame differs from its own records: stats %+v vs %+v", net.Name, sf, sa)
				}
				if !slices.Equal(ra.Edges(), rd.Edges()) {
					t.Fatalf("net %s: astar geometry differs from dijkstra:\n%v\nvs\n%v",
						net.Name, ra.Edges(), rd.Edges())
				}
				if ca, cd := ra.Cost(g), rd.Cost(g); ca != cd {
					t.Fatalf("net %s: astar cost %v != dijkstra cost %v", net.Name, ca, cd)
				}
				if sa.Expansions > sd.Expansions {
					t.Fatalf("net %s: astar settled %d nodes, dijkstra only %d",
						net.Name, sa.Expansions, sd.Expansions)
				}
				bound += sa.BoundPasses
			}
			if checked < 20 {
				t.Fatalf("only %d nets checked", checked)
			}
			if tc.hot && bound == 0 {
				t.Fatal("no A* pass engaged the congestion-aware bound")
			}
			t.Logf("A* passes with the congestion-aware bound: %d", bound)
			t.Logf("A* pushes keyed at the queue's last key: %d, below it: %d", at, below)
			if tc.name == "flat" && at+below == 0 {
				t.Fatal("the flat cost set never pushed a key at or below the queue's last key")
			}
		})
	}
}

// TestDijkstraMatchesBellmanFord validates the windowed Dijkstra against an
// independent Bellman-Ford relaxation over the same 3-D window.
func TestDijkstraMatchesBellmanFord(t *testing.T) {
	d := design.MustGenerate("18test5m", 0.002)
	g := warm(grid.NewFromDesign(d))
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		l := 2 + rng.Intn(3)
		x, y := rng.Intn(g.W-1), rng.Intn(g.H-1)
		if g.HasWireEdge(l, x, y) {
			if g.Dir(l) == grid.Horizontal {
				g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x + 1, Y: y}, rng.Intn(12))
			} else {
				g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x, Y: y + 1}, rng.Intn(12))
			}
		}
	}
	win := geom.NewRect(geom.Point{X: 2, Y: 2}, geom.Point{X: 14, Y: 13})

	for trial := 0; trial < 10; trial++ {
		src := geom.Point3{
			X: win.Lo.X + rng.Intn(win.Width()), Y: win.Lo.Y + rng.Intn(win.Height()), Layer: 1,
		}
		dst := geom.Point3{
			X: win.Lo.X + rng.Intn(win.Width()), Y: win.Lo.Y + rng.Intn(win.Height()),
			Layer: 1 + rng.Intn(g.L),
		}
		if src == dst {
			continue
		}
		mz, _, err := RouteNet(g, 1000+trial, []geom.Point3{src, dst}, win)
		if err != nil {
			t.Fatal(err)
		}
		want := bellmanFord(g, win, src, dst)
		got := mz.Cost(g)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("trial %d %v->%v: dijkstra %v, bellman-ford %v", trial, src, dst, got, want)
		}
	}
}

// bellmanFord computes the exact shortest-path cost inside the window with
// repeated full relaxation — slow, simple, and implementation-independent.
func bellmanFord(g *grid.Graph, win geom.Rect, src, dst geom.Point3) float64 {
	type node = geom.Point3
	dist := map[node]float64{src: 0}
	nodes := []node{}
	for l := 1; l <= g.L; l++ {
		for y := win.Lo.Y; y <= win.Hi.Y; y++ {
			for x := win.Lo.X; x <= win.Hi.X; x++ {
				nodes = append(nodes, node{X: x, Y: y, Layer: l})
			}
		}
	}
	get := func(n node) float64 {
		if v, ok := dist[n]; ok {
			return v
		}
		return math.Inf(1)
	}
	relax := func(a, b node, c float64) bool {
		if v := get(a) + c; v < get(b) {
			dist[b] = v
			return true
		}
		return false
	}
	for iter := 0; iter < len(nodes); iter++ {
		changed := false
		for _, n := range nodes {
			if g.Dir(n.Layer) == grid.Horizontal {
				if n.X+1 <= win.Hi.X {
					c := g.WireCost(n.Layer, n.X, n.Y)
					nb := node{X: n.X + 1, Y: n.Y, Layer: n.Layer}
					changed = relax(n, nb, c) || changed
					changed = relax(nb, n, c) || changed
				}
			} else {
				if n.Y+1 <= win.Hi.Y {
					c := g.WireCost(n.Layer, n.X, n.Y)
					nb := node{X: n.X, Y: n.Y + 1, Layer: n.Layer}
					changed = relax(n, nb, c) || changed
					changed = relax(nb, n, c) || changed
				}
			}
			if n.Layer+1 <= g.L {
				c := g.ViaEdgeCost(n.X, n.Y, n.Layer)
				nb := node{X: n.X, Y: n.Y, Layer: n.Layer + 1}
				changed = relax(n, nb, c) || changed
				changed = relax(nb, n, c) || changed
			}
		}
		if !changed {
			break
		}
	}
	return get(dst)
}
