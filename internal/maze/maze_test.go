package maze

import (
	"math/rand"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/obs"
	"fastgr/internal/route"
	"fastgr/internal/stt"
)

func testGrid(t *testing.T, w, h, layers int) *grid.Graph {
	t.Helper()
	caps := make([]int, layers)
	caps[0] = 1
	for i := 1; i < layers; i++ {
		caps[i] = 10
	}
	d := &design.Design{
		Name: "m", GridW: w, GridH: h, NumLayers: layers,
		LayerCapacity: caps, ViaCapacity: 8,
		Nets: []*design.Net{{ID: 0, Name: "n", Pins: []design.Pin{
			{Pos: geom.Point{X: 0, Y: 0}, Layer: 1},
			{Pos: geom.Point{X: 1, Y: 1}, Layer: 1},
		}}},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return warm(grid.NewFromDesign(d))
}

// warm builds g's cost field, the one cost path the search reads, and
// returns g.
func warm(g *grid.Graph) *grid.Graph {
	g.WarmCostCache()
	return g
}

func fullWindow(g *grid.Graph) geom.Rect {
	return geom.Rect{Lo: geom.Point{X: 0, Y: 0}, Hi: geom.Point{X: g.W - 1, Y: g.H - 1}}
}

func TestTwoPinMazeRoute(t *testing.T) {
	g := testGrid(t, 20, 20, 4)
	pins := []geom.Point3{{X: 2, Y: 3, Layer: 1}, {X: 12, Y: 9, Layer: 1}}
	r, st, err := RouteNet(g, 1, pins, fullWindow(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(g, pins); err != nil {
		t.Fatalf("maze route invalid: %v", err)
	}
	if st.Expansions == 0 || st.Pushes == 0 {
		t.Fatal("stats not counted")
	}
	// Uncongested: wirelength should equal Manhattan distance.
	if wl := r.Wirelength(g); wl != 16 {
		t.Fatalf("wirelength = %d, want 16", wl)
	}
}

func TestMultiPinMazeRoute(t *testing.T) {
	g := testGrid(t, 24, 24, 5)
	pins := []geom.Point3{
		{X: 2, Y: 2, Layer: 1},
		{X: 20, Y: 3, Layer: 1},
		{X: 10, Y: 18, Layer: 2},
		{X: 4, Y: 12, Layer: 1},
	}
	r, _, err := RouteNet(g, 2, pins, fullWindow(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(g, pins); err != nil {
		t.Fatalf("multi-pin maze route invalid: %v", err)
	}
	// Three passes, each joining one pin by a path that meets the
	// connected set only at its source, leave a tree: one node more than
	// edges.
	nodes := map[geom.Point3]bool{}
	for _, e := range r.Edges() {
		a, b := g.EdgeEnds(e)
		nodes[a], nodes[b] = true, true
	}
	if len(nodes) != len(r.Edges())+1 {
		t.Fatalf("route touches %d nodes with %d edges: not a tree", len(nodes), len(r.Edges()))
	}
}

func TestMazeDetoursAroundBlockage(t *testing.T) {
	// Zero-capacity wall at x=10..11 on layer 1 (the only horizontal layer)
	// for rows 0..3; row 4 stays open. The maze must cross there.
	caps := []int{1, 10}
	d := &design.Design{
		Name: "wall", GridW: 20, GridH: 5, NumLayers: 2,
		LayerCapacity: caps, ViaCapacity: 8,
		Nets: []*design.Net{{ID: 0, Name: "n", Pins: []design.Pin{
			{Pos: geom.Point{X: 0, Y: 0}, Layer: 1},
			{Pos: geom.Point{X: 1, Y: 1}, Layer: 1},
		}}},
		Blockages: []design.Blockage{{
			Layer:   1,
			Region:  geom.NewRect(geom.Point{X: 10, Y: 0}, geom.Point{X: 10, Y: 3}),
			Density: 1.0,
		}},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g := warm(grid.NewFromDesign(d))
	pins := []geom.Point3{{X: 2, Y: 2, Layer: 1}, {X: 18, Y: 2, Layer: 1}}
	r, _, err := RouteNet(g, 4, pins, fullWindow(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(g, pins); err != nil {
		t.Fatal(err)
	}
	crossesAt := -1
	for _, run := range g.AppendRuns(nil, r.Edges()) {
		if run.Lo == 1 && run.Hi == 1 && run.A.X <= 10 && run.B.X >= 11 {
			crossesAt = run.A.Y
		}
	}
	if crossesAt != 4 {
		t.Fatalf("route crossed the wall at row %d, want detour via row 4", crossesAt)
	}
}

func TestWindowRestriction(t *testing.T) {
	g := testGrid(t, 30, 30, 4)
	pins := []geom.Point3{{X: 10, Y: 10, Layer: 1}, {X: 14, Y: 13, Layer: 1}}
	win := geom.NewRect(geom.Point{X: 9, Y: 9}, geom.Point{X: 15, Y: 14})
	r, _, err := RouteNet(g, 5, pins, win)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range g.AppendRuns(nil, r.Edges()) {
		if !win.Contains(run.A) || !win.Contains(run.B) {
			t.Fatalf("run %+v escapes window", run)
		}
	}
}

func TestPinOutsideWindowError(t *testing.T) {
	g := testGrid(t, 20, 20, 4)
	pins := []geom.Point3{{X: 1, Y: 1, Layer: 1}, {X: 15, Y: 15, Layer: 1}}
	win := geom.NewRect(geom.Point{X: 0, Y: 0}, geom.Point{X: 5, Y: 5})
	if _, _, err := RouteNet(g, 6, pins, win); err == nil {
		t.Fatal("pin outside window accepted")
	}
	if _, _, err := RouteNet(g, 7, nil, win); err == nil {
		t.Fatal("empty pin list accepted")
	}
}

func TestMazeCheaperOrEqualAfterCongestion(t *testing.T) {
	// Maze should beat the congested straight corridor chosen by pattern
	// routing: cost of its path must be <= pattern's L route cost.
	g := testGrid(t, 20, 20, 4)
	for x := 2; x < 12; x++ {
		for _, l := range []int{1, 3} {
			g.AddSegDemand(l, geom.Point{X: x, Y: 5}, geom.Point{X: x + 1, Y: 5}, 30)
		}
	}
	pins := []geom.Point3{{X: 2, Y: 5, Layer: 1}, {X: 12, Y: 5, Layer: 1}}
	r, _, err := RouteNet(g, 8, pins, fullWindow(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(g, pins); err != nil {
		t.Fatal(err)
	}
	// It must detour off row 5 (wl > 10) because the corridor is saturated.
	if wl := r.Wirelength(g); wl <= 10 {
		t.Fatalf("maze stayed in saturated corridor (wl=%d)", wl)
	}
}

func TestSameLayerDuplicatePins(t *testing.T) {
	g := testGrid(t, 10, 10, 3)
	pins := []geom.Point3{{X: 3, Y: 3, Layer: 1}, {X: 3, Y: 3, Layer: 1}, {X: 7, Y: 7, Layer: 1}}
	r, _, err := RouteNet(g, 9, pins, fullWindow(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(g, pins); err != nil {
		t.Fatal(err)
	}
}

func TestPinsOnDifferentLayers(t *testing.T) {
	g := testGrid(t, 12, 12, 5)
	pins := []geom.Point3{{X: 2, Y: 2, Layer: 1}, {X: 2, Y: 2, Layer: 4}}
	r, _, err := RouteNet(g, 10, pins, fullWindow(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(g, pins); err != nil {
		t.Fatal(err)
	}
	// Pure via stack: no wire demand.
	if r.Wirelength(g) != 0 || r.ViaCount(g) != 3 {
		t.Fatalf("wl=%d vias=%d, want 0/3", r.Wirelength(g), r.ViaCount(g))
	}
}

func TestMazeMatchesPatternOnEasyNets(t *testing.T) {
	// On an empty grid both routers should find Manhattan-length routes.
	g := testGrid(t, 24, 24, 4)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 15; i++ {
		a := geom.Point{X: rng.Intn(20), Y: rng.Intn(20)}
		b := geom.Point{X: rng.Intn(20), Y: rng.Intn(20)}
		if a == b {
			continue
		}
		pins := []geom.Point3{{X: a.X, Y: a.Y, Layer: 1}, {X: b.X, Y: b.Y, Layer: 1}}
		r, _, err := RouteNet(g, 100+i, pins, fullWindow(g))
		if err != nil {
			t.Fatal(err)
		}
		if wl := r.Wirelength(g); wl != geom.ManhattanDist(a, b) {
			t.Fatalf("net %v-%v: wl %d != manhattan %d", a, b, wl, geom.ManhattanDist(a, b))
		}
	}
}

func TestMazeOnGeneratedDesign(t *testing.T) {
	d := design.MustGenerate("18test5m", 0.002)
	g := warm(grid.NewFromDesign(d))
	for _, net := range d.Nets[:60] {
		tree := stt.Build(net)
		pins := route.PinTerminals(tree)
		win := net.BBox().Inflate(6).ClampTo(g.W, g.H)
		r, _, err := RouteNet(g, net.ID, pins, win)
		if err != nil {
			t.Fatalf("net %s: %v", net.Name, err)
		}
		if err := r.Validate(g, pins); err != nil {
			t.Fatalf("net %s: %v", net.Name, err)
		}
		r.Commit(g)
	}
	wire, via := g.TotalDemand()
	if wire == 0 || via == 0 {
		t.Fatal("no demand committed")
	}
}

func TestDeterministicExpansionCounts(t *testing.T) {
	g := testGrid(t, 20, 20, 4)
	pins := []geom.Point3{{X: 1, Y: 1, Layer: 1}, {X: 17, Y: 14, Layer: 1}, {X: 5, Y: 16, Layer: 1}}
	_, s1, err := RouteNet(g, 11, pins, fullWindow(g))
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := RouteNet(g, 11, pins, fullWindow(g))
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("expansion stats differ: %+v vs %+v", s1, s2)
	}
}

// TestSearchObservation checks the per-search metrics hooks: a routed
// net records its expansion count, pushes and one search tick; a nil
// observer leaves the search untouched.
func TestSearchObservation(t *testing.T) {
	g := testGrid(t, 20, 20, 4)
	pins := []geom.Point3{{X: 2, Y: 3, Layer: 1}, {X: 12, Y: 9, Layer: 1}}

	s := NewSearch()
	s.SetObserver(&obs.Observer{Metrics: obs.NewRegistry()})
	// Re-resolve to inspect: SetObserver stores handles from this registry.
	reg := obs.NewRegistry()
	s.SetObserver(&obs.Observer{Metrics: reg})
	_, st, err := s.RouteNet(g, 1, pins, fullWindow(g))
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[obs.MMazeSearches.Name()]; got != 1 {
		t.Errorf("search counter = %d, want 1", got)
	}
	if got := snap.Counters[obs.MMazePushes.Name()]; got != int64(st.Pushes) {
		t.Errorf("push counter = %d, want %d", got, st.Pushes)
	}
	h := snap.Histograms[obs.MMazeExpansions.Name()]
	if h.Count != 1 || h.Sum != int64(st.Expansions) {
		t.Errorf("expansion histogram = %+v, want one observation of %d", h, st.Expansions)
	}

	// Nil observer: same search must still route.
	s2 := NewSearch()
	s2.SetObserver(nil)
	if _, _, err := s2.RouteNet(g, 1, pins, fullWindow(g)); err != nil {
		t.Fatalf("nil observer broke routing: %v", err)
	}
}

// TestCostFieldReadsCountAsHits: a search reads a windowed view's field
// exactly as it reads the full one — the same stats, the same hit count,
// no misses — and refuses a graph whose field is cold or does not cover
// its window.
func TestCostFieldReadsCountAsHits(t *testing.T) {
	pins := []geom.Point3{{X: 2, Y: 3, Layer: 1}, {X: 17, Y: 12, Layer: 2}, {X: 6, Y: 15, Layer: 1}}
	win := geom.NewRect(geom.Point{X: 1, Y: 1}, geom.Point{X: 18, Y: 16})
	hits := func(view bool) (int64, Stats) {
		g := testGrid(t, 20, 20, 4)
		reg := obs.NewRegistry()
		g.SetObserver(&obs.Observer{Metrics: reg})
		if view {
			g = g.WindowView(win)
		} else {
			g.InvalidateCostCache()
		}
		if _, _, err := RouteNet(g, 1, pins, win); err == nil {
			t.Fatalf("view=%v: routed on a cold cost field", view)
		}
		g.WarmCostCache()
		if f := g.CostField(); f == nil || !f.Win.ContainsRect(win) {
			t.Fatalf("view=%v: warm graph serves field %+v", view, f)
		}
		_, st, err := RouteNet(g, 1, pins, win)
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		if m := snap.Counters[obs.MCostMisses.Name()]; m != 0 {
			t.Fatalf("view=%v: %d cost-cache misses inside the cached window", view, m)
		}
		return snap.Counters[obs.MCostHits.Name()], st
	}
	full, fst := hits(false)
	windowed, wst := hits(true)
	if fst != wst {
		t.Fatalf("stats differ: %+v on the full field, %+v on the view's", fst, wst)
	}
	if full != windowed || full == 0 {
		t.Fatalf("cost hits: %d on the full field, %d on the view's", full, windowed)
	}
	g := testGrid(t, 20, 20, 4).WindowView(geom.NewRect(geom.Point{X: 2, Y: 2}, geom.Point{X: 18, Y: 16}))
	g.WarmCostCache()
	if _, _, err := RouteNet(g, 1, pins, win); err == nil {
		t.Fatal("routed in a window its graph's field does not cover")
	}
}
