package pattern

import (
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

func testGrid(t *testing.T, layers int) *grid.Graph {
	t.Helper()
	caps := make([]int, layers)
	caps[0] = 1
	for i := 1; i < layers; i++ {
		caps[i] = 10
	}
	d := &design.Design{
		Name: "p", GridW: 24, GridH: 24, NumLayers: layers,
		LayerCapacity: caps, ViaCapacity: 8,
		Nets: []*design.Net{netOf(geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 1})},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return grid.NewFromDesign(d)
}

func netOf(pts ...geom.Point) *design.Net {
	n := &design.Net{ID: 1, Name: "n"}
	for _, p := range pts {
		n.Pins = append(n.Pins, design.Pin{Pos: p, Layer: 1})
	}
	return n
}

func solveAndCheck(t *testing.T, g *grid.Graph, net *design.Net, cfg Config) Result {
	t.Helper()
	tree := stt.Build(net)
	res := SolveCPU(g, tree, cfg)
	if res.Route == nil {
		t.Fatal("nil route")
	}
	if math.IsInf(res.Cost, 1) {
		t.Fatal("infinite cost")
	}
	if err := res.Route.Validate(g, route.PinTerminals(tree)); err != nil {
		t.Fatalf("route invalid: %v", err)
	}
	// The reference DP's pieces, priced one by one, must add up to the DP
	// cost and spell the route's edges.
	ref, want := refSolve(g, tree, cfg)
	if ec := pieceCost(g, ref.pieces); math.Abs(ec-res.Cost) > 1e-6 {
		t.Fatalf("piece cost %v != DP cost %v", ec, res.Cost)
	}
	if !slices.Equal(res.Route.Edges(), want.Route.Edges()) {
		t.Fatalf("route edges %v, reference %v", res.Route.Edges(), want.Route.Edges())
	}
	return res
}

func TestLShapeTwoPin(t *testing.T) {
	g := testGrid(t, 4)
	net := netOf(geom.Point{X: 2, Y: 3}, geom.Point{X: 9, Y: 8})
	res := solveAndCheck(t, g, net, Config{Mode: LShape})
	if res.Edges != 1 || res.HybridEdges != 0 {
		t.Fatalf("edges=%d hybrid=%d", res.Edges, res.HybridEdges)
	}
	// Wirelength of an L route equals the Manhattan distance.
	if wl := res.Route.Wirelength(g); wl != 12 {
		t.Fatalf("wirelength = %d, want 12", wl)
	}
}

// bruteForceTwoPin enumerates every L-shape solution of a two-pin net with
// both pins on layer 1, computing costs directly from the grid — an
// implementation completely independent of the DP.
func bruteForceTwoPin(g *grid.Graph, s, t geom.Point) float64 {
	best := math.Inf(1)
	L := g.L
	try := func(bend geom.Point, ls, lt int) {
		// Leg 1: s->bend on ls; leg 2: bend->t on lt.
		if s != bend {
			if segOrient(s, bend) != g.Dir(ls) {
				return
			}
		}
		if bend != t {
			if segOrient(bend, t) != g.Dir(lt) {
				return
			}
		}
		c := g.ViaStackCost(s.X, s.Y, 1, ls) + g.SegCost(ls, s, bend) +
			g.ViaStackCost(bend.X, bend.Y, ls, lt) + g.SegCost(lt, bend, t) +
			g.ViaStackCost(t.X, t.Y, lt, 1)
		if c < best {
			best = c
		}
	}
	for ls := 1; ls <= L; ls++ {
		for lt := 1; lt <= L; lt++ {
			try(geom.Point{X: t.X, Y: s.Y}, ls, lt)
			try(geom.Point{X: s.X, Y: t.Y}, ls, lt)
		}
	}
	return best
}

func TestLShapeMatchesBruteForce(t *testing.T) {
	g := testGrid(t, 4)
	rng := rand.New(rand.NewSource(7))
	// Add random congestion so costs are non-uniform.
	for i := 0; i < 120; i++ {
		l := 2 + rng.Intn(3)
		x, y := rng.Intn(20), rng.Intn(20)
		if g.HasWireEdge(l, x, y) {
			if g.Dir(l) == grid.Horizontal {
				g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x + 1, Y: y}, 1+rng.Intn(12))
			} else {
				g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x, Y: y + 1}, 1+rng.Intn(12))
			}
		}
	}
	for i := 0; i < 40; i++ {
		s := geom.Point{X: rng.Intn(20), Y: rng.Intn(20)}
		d := geom.Point{X: rng.Intn(20), Y: rng.Intn(20)}
		if s == d {
			continue
		}
		res := solveAndCheck(t, g, netOf(s, d), Config{Mode: LShape})
		want := bruteForceTwoPin(g, s, d)
		if math.Abs(res.Cost-want) > 1e-6 {
			t.Fatalf("net %v->%v: DP cost %v, brute force %v", s, d, res.Cost, want)
		}
	}
}

// bruteForceZ enumerates every hybrid (HVH and VHV over the full bbox)
// solution for a two-pin net with pins on layer 1.
func bruteForceZ(g *grid.Graph, s, t geom.Point) float64 {
	best := math.Inf(1)
	L := g.L
	try := func(bs, bt geom.Point, ls, lb, lt int) {
		legs := []struct {
			a, b geom.Point
			l    int
		}{{s, bs, ls}, {bs, bt, lb}, {bt, t, lt}}
		for _, leg := range legs {
			if leg.a != leg.b && segOrient(leg.a, leg.b) != g.Dir(leg.l) {
				return
			}
		}
		c := g.ViaStackCost(s.X, s.Y, 1, ls) + g.SegCost(ls, s, bs) +
			g.ViaStackCost(bs.X, bs.Y, ls, lb) + g.SegCost(lb, bs, bt) +
			g.ViaStackCost(bt.X, bt.Y, lb, lt) + g.SegCost(lt, bt, t) +
			g.ViaStackCost(t.X, t.Y, lt, 1)
		if c < best {
			best = c
		}
	}
	lox, hix := geom.Min(s.X, t.X), geom.Max(s.X, t.X)
	loy, hiy := geom.Min(s.Y, t.Y), geom.Max(s.Y, t.Y)
	for ls := 1; ls <= L; ls++ {
		for lb := 1; lb <= L; lb++ {
			for lt := 1; lt <= L; lt++ {
				for xi := lox; xi <= hix; xi++ {
					try(geom.Point{X: xi, Y: s.Y}, geom.Point{X: xi, Y: t.Y}, ls, lb, lt)
				}
				for yi := loy; yi <= hiy; yi++ {
					try(geom.Point{X: s.X, Y: yi}, geom.Point{X: t.X, Y: yi}, ls, lb, lt)
				}
			}
		}
	}
	return best
}

func TestHybridMatchesBruteForce(t *testing.T) {
	g := testGrid(t, 4)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 150; i++ {
		l := 2 + rng.Intn(3)
		x, y := rng.Intn(20), rng.Intn(20)
		if g.HasWireEdge(l, x, y) {
			if g.Dir(l) == grid.Horizontal {
				g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x + 1, Y: y}, 1+rng.Intn(14))
			} else {
				g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x, Y: y + 1}, 1+rng.Intn(14))
			}
		}
	}
	for i := 0; i < 25; i++ {
		s := geom.Point{X: rng.Intn(14), Y: rng.Intn(14)}
		d := geom.Point{X: rng.Intn(14), Y: rng.Intn(14)}
		if s == d {
			continue
		}
		res := solveAndCheck(t, g, netOf(s, d), Config{Mode: Hybrid})
		want := bruteForceZ(g, s, d)
		if math.Abs(res.Cost-want) > 1e-6 {
			t.Fatalf("net %v->%v: DP cost %v, brute force %v", s, d, res.Cost, want)
		}
	}
}

func TestHybridNeverWorseThanL(t *testing.T) {
	g := testGrid(t, 4)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 150; i++ {
		l := 2 + rng.Intn(3)
		x, y := rng.Intn(22), rng.Intn(22)
		if g.HasWireEdge(l, x, y) {
			if g.Dir(l) == grid.Horizontal {
				g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x + 1, Y: y}, rng.Intn(15))
			} else {
				g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x, Y: y + 1}, rng.Intn(15))
			}
		}
	}
	for i := 0; i < 30; i++ {
		pts := []geom.Point{
			{X: rng.Intn(20), Y: rng.Intn(20)},
			{X: rng.Intn(20), Y: rng.Intn(20)},
			{X: rng.Intn(20), Y: rng.Intn(20)},
		}
		if pts[0] == pts[1] || pts[1] == pts[2] || pts[0] == pts[2] {
			continue
		}
		net := netOf(pts...)
		lRes := solveAndCheck(t, g, net, Config{Mode: LShape})
		hRes := solveAndCheck(t, g, net, Config{Mode: Hybrid})
		if hRes.Cost > lRes.Cost+1e-9 {
			t.Fatalf("hybrid cost %v worse than L %v for %v", hRes.Cost, lRes.Cost, pts)
		}
	}
}

func TestStraightNets(t *testing.T) {
	g := testGrid(t, 4)
	for _, mode := range []Mode{LShape, ZShape, Hybrid} {
		// Horizontal straight net.
		res := solveAndCheck(t, g, netOf(geom.Point{X: 2, Y: 5}, geom.Point{X: 9, Y: 5}),
			Config{Mode: mode})
		if wl := res.Route.Wirelength(g); wl != 7 {
			t.Fatalf("mode %v horizontal wl = %d, want 7", mode, wl)
		}
		// Vertical straight net.
		res = solveAndCheck(t, g, netOf(geom.Point{X: 5, Y: 2}, geom.Point{X: 5, Y: 9}),
			Config{Mode: mode})
		if wl := res.Route.Wirelength(g); wl != 7 {
			t.Fatalf("mode %v vertical wl = %d, want 7", mode, wl)
		}
	}
}

func TestAdjacentCellsNet(t *testing.T) {
	g := testGrid(t, 4)
	for _, mode := range []Mode{LShape, ZShape, Hybrid} {
		res := solveAndCheck(t, g, netOf(geom.Point{X: 3, Y: 3}, geom.Point{X: 4, Y: 4}),
			Config{Mode: mode})
		if wl := res.Route.Wirelength(g); wl != 2 {
			t.Fatalf("mode %v wl = %d, want 2", mode, wl)
		}
	}
}

func TestMultiPinNets(t *testing.T) {
	g := testGrid(t, 5)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(6)
		seen := map[geom.Point]bool{}
		var pts []geom.Point
		for len(pts) < n {
			p := geom.Point{X: rng.Intn(22), Y: rng.Intn(22)}
			if !seen[p] {
				seen[p] = true
				pts = append(pts, p)
			}
		}
		for _, mode := range []Mode{LShape, Hybrid} {
			res := solveAndCheck(t, g, netOf(pts...), Config{Mode: mode})
			if res.Edges < n-1 {
				t.Fatalf("mode %v: %d edges for %d pins", mode, res.Edges, n)
			}
		}
	}
}

func TestSelectionThresholds(t *testing.T) {
	g := testGrid(t, 4)
	cfg := Config{Mode: Hybrid, Selection: true, T1: 4, T2: 12}
	// HPWL 2: below T1 -> L-shape.
	res := solveAndCheck(t, g, netOf(geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 1}), cfg)
	if res.HybridEdges != 0 {
		t.Fatal("small net used hybrid kernel")
	}
	// HPWL 10: medium -> hybrid.
	res = solveAndCheck(t, g, netOf(geom.Point{X: 0, Y: 0}, geom.Point{X: 5, Y: 5}), cfg)
	if res.HybridEdges != 1 {
		t.Fatal("medium net did not use hybrid kernel")
	}
	// HPWL 30: above T2 -> L-shape again (tremendous nets excluded).
	res = solveAndCheck(t, g, netOf(geom.Point{X: 0, Y: 0}, geom.Point{X: 15, Y: 15}), cfg)
	if res.HybridEdges != 0 {
		t.Fatal("large net used hybrid kernel despite selection")
	}
}

func TestZShapeInteriorFallback(t *testing.T) {
	g := testGrid(t, 4)
	// A 1-wide bbox has no interior bend columns/rows: Z mode must fall
	// back to L and still route.
	res := solveAndCheck(t, g, netOf(geom.Point{X: 3, Y: 3}, geom.Point{X: 4, Y: 3}),
		Config{Mode: ZShape})
	if res.Route.Wirelength(g) != 1 {
		t.Fatalf("wl = %d", res.Route.Wirelength(g))
	}
}

func TestCongestionAvoidance(t *testing.T) {
	g := testGrid(t, 4)
	// Pins span a 2-D box; saturate the two boundary rows (the rows every
	// L-shape's horizontal leg must use) on all horizontal layers, leaving
	// interior rows free for a Z pattern.
	for _, l := range []int{1, 3} {
		for _, y := range []int{2, 8} {
			for x := 2; x < 10; x++ {
				g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x + 1, Y: y}, 25)
			}
		}
	}
	net := netOf(geom.Point{X: 2, Y: 2}, geom.Point{X: 10, Y: 8})
	lRes := solveAndCheck(t, g, net, Config{Mode: LShape})
	hRes := solveAndCheck(t, g, net, Config{Mode: Hybrid})
	// Z patterns can run the horizontal leg on an uncongested interior row;
	// L shapes cannot. Hybrid must be strictly cheaper.
	if hRes.Cost >= lRes.Cost-1e-6 {
		t.Fatalf("hybrid (%v) did not beat L (%v) around boundary congestion",
			hRes.Cost, lRes.Cost)
	}
	// And the winning geometry's long horizontal run must sit on an
	// interior row.
	for _, run := range g.AppendRuns(nil, hRes.Route.Edges()) {
		if run.Lo == run.Hi && run.A.Y == run.B.Y && run.B.X-run.A.X > 2 && (run.A.Y == 2 || run.A.Y == 8) {
			t.Fatalf("long horizontal run on congested row %d", run.A.Y)
		}
	}
}

func TestOpsCountedAndDeterministic(t *testing.T) {
	g := testGrid(t, 4)
	net := netOf(geom.Point{X: 1, Y: 1}, geom.Point{X: 9, Y: 7}, geom.Point{X: 4, Y: 12})
	a := solveAndCheck(t, g, net, Config{Mode: Hybrid})
	b := solveAndCheck(t, g, net, Config{Mode: Hybrid})
	if a.Cost != b.Cost || a.Ops != b.Ops {
		t.Fatal("solver not deterministic")
	}
	if a.Ops.FlowOps == 0 || a.Ops.DownOps == 0 {
		t.Fatalf("ops not counted: %+v", a.Ops)
	}
	l := solveAndCheck(t, g, net, Config{Mode: LShape})
	if l.Ops.FlowOps >= a.Ops.FlowOps {
		t.Fatal("hybrid should cost more flow ops than L")
	}
}

func TestMinPlusVecMat(t *testing.T) {
	run := func(w, m []float64) ([]float64, []int) {
		out, arg := make([]float64, len(w)), make([]int, len(w))
		MinPlusVecMat(w, m, len(w), out, arg)
		return out, arg
	}
	// L=2: out[j] = min_i w[i]+m[i][j].
	w := []float64{1, 5}
	m := []float64{10, 2, 1, 1} // rows: [10,2], [1,1]
	out, arg := run(w, m)
	if out[0] != 6 || arg[0] != 1 {
		t.Fatalf("out[0]=%v arg=%d", out[0], arg[0])
	}
	if out[1] != 3 || arg[1] != 0 {
		t.Fatalf("out[1]=%v arg=%d", out[1], arg[1])
	}
	// Inf propagation: every row entered at Inf leaves every column at Inf
	// with arg 0.
	out, arg = run([]float64{Inf, Inf}, m)
	if !math.IsInf(out[0], 1) || !math.IsInf(out[1], 1) || arg[0] != 0 || arg[1] != 0 {
		t.Fatalf("Inf rows: out=%v arg=%v", out, arg)
	}
	// L=3: row 0 is Inf, column 2 is Inf in every finite row (arg 0), and
	// column 0 ties between rows 1 and 2 (the first wins).
	out, arg = run([]float64{Inf, 2, 1}, []float64{
		0, 0, 0,
		1, 4, Inf,
		2, 1, Inf,
	})
	if out[0] != 3 || arg[0] != 1 || out[1] != 2 || arg[1] != 2 ||
		!math.IsInf(out[2], 1) || arg[2] != 0 {
		t.Fatalf("Inf row, all-Inf column, tie: out=%v arg=%v", out, arg)
	}
	// Random tie-heavy inputs against the column-by-column reference.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		L := 1 + rng.Intn(9)
		w, m := make([]float64, L), make([]float64, L*L)
		pick := func() float64 {
			if rng.Intn(3) == 0 {
				return Inf
			}
			return float64(rng.Intn(4))
		}
		for i := range w {
			w[i] = pick()
		}
		for i := range m {
			m[i] = pick()
		}
		out, arg := run(w, m)
		wantOut, wantArg := refMinPlusVecMat(w, m, L)
		if !reflect.DeepEqual(out, wantOut) || !reflect.DeepEqual(arg, wantArg) {
			t.Fatalf("w=%v m=%v: got %v/%v, want %v/%v", w, m, out, arg, wantOut, wantArg)
		}
	}
}

func TestPinLayerAccess(t *testing.T) {
	g := testGrid(t, 5)
	// Pins on different layers: the route must include via stacks to them.
	net := &design.Net{ID: 3, Name: "n", Pins: []design.Pin{
		{Pos: geom.Point{X: 2, Y: 2}, Layer: 1},
		{Pos: geom.Point{X: 8, Y: 6}, Layer: 2},
	}}
	tree := stt.Build(net)
	res := SolveCPU(g, tree, Config{Mode: LShape})
	if err := res.Route.Validate(g, route.PinTerminals(tree)); err != nil {
		t.Fatalf("pins at mixed layers unreachable: %v", err)
	}
	if res.Route.ViaCount(g) == 0 {
		t.Fatal("expected vias to reach pin layers")
	}
}

func TestGeneratedDesignPatternRouting(t *testing.T) {
	d := design.MustGenerate("18test5m", 0.002)
	g := grid.NewFromDesign(d)
	for _, net := range d.Nets[:150] {
		tree := stt.Build(net)
		for _, cfg := range []Config{
			{Mode: LShape},
			{Mode: Hybrid, Selection: true, T1: 6, T2: 60},
		} {
			res := SolveCPU(g, tree, cfg)
			if err := res.Route.Validate(g, route.PinTerminals(tree)); err != nil {
				t.Fatalf("net %s mode %v: %v", net.Name, cfg.Mode, err)
			}
		}
	}
}

func TestModeString(t *testing.T) {
	if LShape.String() != "L" || ZShape.String() != "Z" || Hybrid.String() != "hybrid" {
		t.Fatal("Mode.String wrong")
	}
}
