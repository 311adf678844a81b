package pattern

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/route"
	"fastgr/internal/stt"
)

// oracleConfigs covers all four modes, the hybrid kernel with and without
// selection.
var oracleConfigs = []Config{
	{Mode: LShape},
	{Mode: ZShape},
	{Mode: Hybrid},
	{Mode: Hybrid, Selection: true, T1: 4, T2: 14},
	{Mode: Staircase},
}

// oracleGrid builds a w×h grid with L layers whose cost field stands in the
// named state:
//
//	flat   — no demand, warm: uniform costs, so exactly tied candidates
//	warm   — random demand, warm: every bend reads a clean prefix run
//	cold   — random demand, never warmed: every read takes the formula
//	dirty  — warm, then more demand: dirty lines and cells walk values
//	window — random demand behind a warmed partial-window view, which has
//	         no prefix runs and computes cells outside it from the formula
func oracleGrid(t *testing.T, rng *rand.Rand, L int, state string) *grid.Graph {
	t.Helper()
	const w, h = 18, 16
	caps := make([]int, L)
	caps[0] = 1
	for i := 1; i < L; i++ {
		caps[i] = 2 + rng.Intn(6)
	}
	d := &design.Design{
		Name: "oracle", GridW: w, GridH: h, NumLayers: L,
		LayerCapacity: caps, ViaCapacity: 3,
		Nets: []*design.Net{netOf(geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 1})},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g := grid.NewFromDesign(d)
	load := func(n int) {
		for i := 0; i < n; i++ {
			l := 1 + rng.Intn(L)
			x, y := rng.Intn(w), rng.Intn(h)
			if rng.Intn(3) == 0 && l < L {
				g.AddViaStackDemand(x, y, l, l+1+rng.Intn(L-l), 1+rng.Intn(4))
				continue
			}
			if !g.HasWireEdge(l, x, y) {
				continue
			}
			b := geom.Point{X: x + 1, Y: y}
			if g.Dir(l) == grid.Vertical {
				b = geom.Point{X: x, Y: y + 1}
			}
			g.AddSegDemand(l, geom.Point{X: x, Y: y}, b, 1+rng.Intn(9))
		}
	}
	switch state {
	case "flat":
		g.WarmCostCache()
	case "warm":
		load(300)
		g.WarmCostCache()
	case "cold":
		load(300)
	case "dirty":
		load(300)
		g.WarmCostCache()
		load(60)
	case "window":
		load(300)
		g = g.WindowView(geom.Rect{Lo: geom.Point{X: 3, Y: 2}, Hi: geom.Point{X: 13, Y: 12}})
		g.WarmCostCache()
	default:
		t.Fatalf("unknown cost state %q", state)
	}
	return g
}

// oracleNet draws a net of 2..6 pins on the grid, some sharing a position
// on different layers (a pin layer range at one tree node) and some on
// upper layers.
func oracleNet(rng *rand.Rand, g *grid.Graph, id int) *design.Net {
	n := &design.Net{ID: id, Name: fmt.Sprint("n", id)}
	for len(n.Pins) < 2+rng.Intn(5) {
		p := design.Pin{Pos: geom.Point{X: rng.Intn(g.W), Y: rng.Intn(g.H)}, Layer: 1}
		if len(n.Pins) > 0 && rng.Intn(4) == 0 {
			p.Pos = n.Pins[rng.Intn(len(n.Pins))].Pos
		}
		if rng.Intn(3) == 0 {
			p.Layer = 1 + rng.Intn(min(g.L, 3))
		}
		n.Pins = append(n.Pins, p)
	}
	return n
}

// checkAgainstReference solves tree on s and on the reference DP and
// requires the same result, ops, per-node tables and geometry.
func checkAgainstReference(t *testing.T, s *Solver, g *grid.Graph, tree *stt.Tree, cfg Config) {
	t.Helper()
	got := s.SolveCPU(g, tree, cfg)
	ref, want := refSolve(g, tree, cfg)
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		t.Fatalf("cost %v, reference %v", got.Cost, want.Cost)
	}
	if got.Ops != want.Ops || got.Edges != want.Edges || got.HybridEdges != want.HybridEdges {
		t.Fatalf("counters %+v/%d/%d, reference %+v/%d/%d",
			got.Ops, got.Edges, got.HybridEdges, want.Ops, want.Edges, want.HybridEdges)
	}
	L := g.L
	for u := range tree.Nodes {
		if u != tree.Root {
			if v := s.edgeVal[u*L : u*L+L]; !reflect.DeepEqual(v, ref.edgeVal[u]) {
				t.Fatalf("node %d edge values %v, reference %v", u, v, ref.edgeVal[u])
			}
			if c := s.edgeChoice[u*L : u*L+L]; !reflect.DeepEqual(c, ref.edgeChoice[u]) {
				t.Fatalf("node %d choices %v, reference %v", u, c, ref.edgeChoice[u])
			}
		}
		checkDown(t, s, ref, u)
	}
	if got.Route.NetID != want.Route.NetID || !slices.Equal(got.Route.Edges(), want.Route.Edges()) {
		t.Fatalf("route %v, reference %v", got.Route.Edges(), want.Route.Edges())
	}
}

// checkDown compares node u's bottom-children costs and picks.
func checkDown(t *testing.T, s *Solver, ref *refSolver, u int) {
	t.Helper()
	L := s.L
	if d := s.down[u*L : u*L+L]; !reflect.DeepEqual(d, ref.down[u]) {
		t.Fatalf("node %d down %v, reference %v", u, d, ref.down[u])
	}
	for la := 1; la <= L; la++ {
		got, want := s.downPick[u*L+la-1], ref.downPick[u][la-1]
		if got.lo != want.lo || got.hi != want.hi {
			t.Fatalf("node %d layer %d interval [%d,%d], reference [%d,%d]", u, la, got.lo, got.hi, want.lo, want.hi)
		}
		if want.lo == 0 {
			continue
		}
		for i, c := range s.tree.Nodes[u].Children {
			if cl := s.childLayer(c, got.lo, got.hi); cl != want.childLayers[i] {
				t.Fatalf("node %d layer %d child %d joins at %d, reference %d", u, la, c, cl, want.childLayers[i])
			}
		}
	}
}

// TestSolverMatchesReference holds the Solver to the allocating DP it
// replaced on random nets over L ∈ {2, 5, 9}, every cost-field state and
// all four modes, one Solver reused throughout each grid.
func TestSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, L := range []int{2, 5, 9} {
		for _, state := range []string{"flat", "warm", "cold", "dirty", "window"} {
			g := oracleGrid(t, rng, L, state)
			var s Solver
			for i := 0; i < 12; i++ {
				tree := stt.Build(oracleNet(rng, g, i))
				for _, cfg := range oracleConfigs {
					t.Run(fmt.Sprintf("L%d/%s/net%d/%v", L, state, i, cfg.Mode), func(t *testing.T) {
						checkAgainstReference(t, &s, g, tree, cfg)
					})
				}
			}
		}
	}
}

// TestComputeDownMatchesReference drives the bottom-children cost directly
// with the inputs routed nets rarely produce: children with Inf layers or
// no finite layer at all, exactly tied values, and pin layer ranges.
func TestComputeDownMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	values := []float64{Inf, 0, 1, 1, 2.5, 3}
	for trial := 0; trial < 600; trial++ {
		L := []int{2, 5, 9}[trial%3]
		g := oracleGrid(t, rng, L, []string{"flat", "warm", "cold"}[trial%3])
		at := geom.Point{X: rng.Intn(g.W), Y: rng.Intn(g.H)}
		tree := &stt.Tree{NetID: trial, Nodes: []stt.Node{{Pos: at, Parent: -1}}}
		for l := 1; l <= L; l++ {
			if rng.Intn(4) == 0 {
				tree.Nodes[0].PinLayers = append(tree.Nodes[0].PinLayers, l)
			}
		}
		ref := &refSolver{g: g, tree: tree, L: L}
		kids := rng.Intn(4)
		ref.edgeVal = make([][]float64, kids+1)
		ref.down = make([][]float64, kids+1)
		ref.downPick = make([][]refDownChoice, kids+1)
		for c := 1; c <= kids; c++ {
			tree.Nodes = append(tree.Nodes, stt.Node{ID: c, Pos: at, Parent: 0})
			tree.Nodes[0].Children = append(tree.Nodes[0].Children, c)
			ref.edgeVal[c] = make([]float64, L)
			for l := range ref.edgeVal[c] {
				ref.edgeVal[c][l] = values[rng.Intn(len(values))]
			}
			if rng.Intn(6) == 0 {
				for l := range ref.edgeVal[c] {
					ref.edgeVal[c][l] = Inf
				}
			}
		}
		var s Solver
		s.reset(g, tree, Config{})
		for c := 1; c <= kids; c++ {
			copy(s.edgeVal[c*L:], ref.edgeVal[c])
		}
		ref.computeDown(0)
		s.computeDown(0)
		checkDown(t, &s, ref, 0)
		if s.ops != ref.ops {
			t.Fatalf("trial %d: ops %+v, reference %+v", trial, s.ops, ref.ops)
		}
	}
}

// sinkRoute keeps copyRoute's result alive for the allocation count.
var sinkRoute *route.NetRoute

// copier is copyRoute's builder, warm after AllocsPerRun's first call like
// the Solver's own.
var copier route.Builder

// copyRoute rebuilds r the way the solver emits it: one NetRoute and its
// sealed edge list, out of a warm builder.
func copyRoute(g *grid.Graph, r *route.NetRoute) *route.NetRoute {
	copier.Reset(g, r.NetID)
	copier.AddRoute(r)
	return copier.Build()
}

// TestSolverAllocatesOnlyTheRoute: a reused Solver on a warm grid
// allocates exactly what building its returned route allocates.
func TestSolverAllocatesOnlyTheRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := oracleGrid(t, rng, 9, "warm")
	for _, cfg := range oracleConfigs {
		var s Solver
		for i := 0; i < 6; i++ {
			tree := stt.Build(oracleNet(rng, g, i))
			res := s.SolveCPU(g, tree, cfg)
			got := testing.AllocsPerRun(5, func() { s.SolveCPU(g, tree, cfg) })
			want := testing.AllocsPerRun(5, func() { sinkRoute = copyRoute(g, res.Route) })
			if got != want {
				t.Errorf("%v net %d: %v allocs per solve, the route alone takes %v", cfg.Mode, i, got, want)
			}
		}
	}
}
