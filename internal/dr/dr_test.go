package dr

import (
	"testing"

	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/route"
)

func testGrid(t *testing.T, cap int) *grid.Graph {
	t.Helper()
	d := &design.Design{
		Name: "dr", GridW: 32, GridH: 32, NumLayers: 4,
		LayerCapacity: []int{1, cap, cap, cap}, ViaCapacity: 16,
		Nets: []*design.Net{{ID: 0, Name: "n", Pins: []design.Pin{
			{Pos: geom.Point{X: 0, Y: 0}, Layer: 1},
			{Pos: geom.Point{X: 1, Y: 1}, Layer: 1},
		}}},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return grid.NewFromDesign(d)
}

// shapeGrid has testGrid's dimensions: routes built on it address the same
// edges on every testGrid, whatever the capacities.
var shapeGrid = grid.NewFromDesign(&design.Design{
	Name: "shape", GridW: 32, GridH: 32, NumLayers: 4,
	LayerCapacity: []int{1, 1, 1, 1}, ViaCapacity: 1,
})

// buildRoute builds net's route on shapeGrid from the pieces add gives.
func buildRoute(net int, add func(b *route.Builder)) *route.NetRoute {
	var b route.Builder
	b.Reset(shapeGrid, net)
	add(&b)
	return b.Build()
}

func routeWithSeg(net int, layer int, a, c geom.Point) *route.NetRoute {
	return buildRoute(net, func(b *route.Builder) { b.Seg(layer, a, c) })
}

func TestEmptyRoutes(t *testing.T) {
	g := testGrid(t, 8)
	m := Evaluate(g, nil)
	if m != (Metrics{}) {
		t.Fatalf("empty evaluation nonzero: %+v", m)
	}
	m = Evaluate(g, []*route.NetRoute{nil, nil})
	if m != (Metrics{}) {
		t.Fatalf("nil routes nonzero: %+v", m)
	}
}

func TestSingleNetNoViolations(t *testing.T) {
	g := testGrid(t, 8)
	r := routeWithSeg(1, 3, geom.Point{X: 2, Y: 5}, geom.Point{X: 10, Y: 5})
	m := Evaluate(g, []*route.NetRoute{r})
	if m.Shorts != 0 || m.Spacing != 0 {
		t.Fatalf("single wire has violations: %+v", m)
	}
	if m.Wirelength != 8 {
		t.Fatalf("wirelength = %d, want 8", m.Wirelength)
	}
	if m.Vias != 1 { // one track-access stub, no guide vias
		t.Fatalf("vias = %d, want 1", m.Vias)
	}
}

func TestCapacityOneOverlapIsShort(t *testing.T) {
	g := testGrid(t, 1)
	// Two nets on the same panel, overlapping in [4,8]: one track only.
	a := routeWithSeg(1, 3, geom.Point{X: 2, Y: 5}, geom.Point{X: 8, Y: 5})
	b := routeWithSeg(2, 3, geom.Point{X: 4, Y: 5}, geom.Point{X: 12, Y: 5})
	m := Evaluate(g, []*route.NetRoute{a, b})
	if m.Shorts == 0 {
		t.Fatal("overlap on a single track produced no shorts")
	}
	// Disjoint nets on one track: no shorts.
	c := routeWithSeg(3, 3, geom.Point{X: 2, Y: 9}, geom.Point{X: 6, Y: 9})
	d := routeWithSeg(4, 3, geom.Point{X: 10, Y: 9}, geom.Point{X: 14, Y: 9})
	m = Evaluate(g, []*route.NetRoute{c, d})
	if m.Shorts != 0 {
		t.Fatalf("disjoint intervals shorted: %+v", m)
	}
}

func TestAdjacentTrackSpacing(t *testing.T) {
	g := testGrid(t, 8)
	// Two nets overlapping for 16 cells land on adjacent tracks.
	a := routeWithSeg(1, 3, geom.Point{X: 0, Y: 5}, geom.Point{X: 16, Y: 5})
	b := routeWithSeg(2, 3, geom.Point{X: 0, Y: 5}, geom.Point{X: 16, Y: 5})
	m := Evaluate(g, []*route.NetRoute{a, b})
	if m.Spacing == 0 {
		t.Fatal("long parallel run produced no spacing violations")
	}
	if m.Shorts != 0 {
		t.Fatalf("two tracks suffice, but shorts = %d", m.Shorts)
	}
}

func TestNetSelfOverlapCountsOnce(t *testing.T) {
	g := testGrid(t, 1)
	// One net with two overlapping paths in the same panel: dedup keeps it
	// on one track, no shorts.
	r := buildRoute(7, func(b *route.Builder) {
		b.Seg(3, geom.Point{X: 2, Y: 5}, geom.Point{X: 10, Y: 5})
		b.Seg(3, geom.Point{X: 6, Y: 5}, geom.Point{X: 14, Y: 5})
	})
	m := Evaluate(g, []*route.NetRoute{r})
	if m.Shorts != 0 {
		t.Fatalf("self-overlap shorted: %+v", m)
	}
	if m.Wirelength != 12 {
		t.Fatalf("wirelength = %d, want 12 (merged run)", m.Wirelength)
	}
}

func TestBlockedRegionShorts(t *testing.T) {
	d := &design.Design{
		Name: "blk", GridW: 32, GridH: 32, NumLayers: 4,
		LayerCapacity: []int{1, 2, 2, 2}, ViaCapacity: 16,
		Nets: []*design.Net{{ID: 0, Name: "n", Pins: []design.Pin{
			{Pos: geom.Point{X: 0, Y: 0}, Layer: 1},
			{Pos: geom.Point{X: 1, Y: 1}, Layer: 1},
		}}},
		Blockages: []design.Blockage{{
			Layer:   3,
			Region:  geom.NewRect(geom.Point{X: 5, Y: 5}, geom.Point{X: 8, Y: 5}),
			Density: 1.0,
		}},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g := grid.NewFromDesign(d)
	r := routeWithSeg(1, 3, geom.Point{X: 2, Y: 5}, geom.Point{X: 12, Y: 5})
	m := Evaluate(g, []*route.NetRoute{r})
	if m.Shorts == 0 {
		t.Fatal("wire through zero-capacity region produced no shorts")
	}
}

func TestVerticalPanels(t *testing.T) {
	g := testGrid(t, 1)
	a := routeWithSeg(1, 2, geom.Point{X: 5, Y: 2}, geom.Point{X: 5, Y: 10})
	b := routeWithSeg(2, 2, geom.Point{X: 5, Y: 6}, geom.Point{X: 5, Y: 14})
	m := Evaluate(g, []*route.NetRoute{a, b})
	if m.Shorts == 0 {
		t.Fatal("vertical overlap on single track produced no shorts")
	}
}

func TestGuideViasCounted(t *testing.T) {
	g := testGrid(t, 8)
	r := buildRoute(1, func(b *route.Builder) { b.Via(3, 3, 1, 4) })
	m := Evaluate(g, []*route.NetRoute{r})
	if m.Vias != 3 {
		t.Fatalf("vias = %d, want 3", m.Vias)
	}
}

func TestEvaluateFullRouterOutput(t *testing.T) {
	d := design.MustGenerate("18test5m", 0.004)
	opt := core.DefaultOptions(core.FastGRL)
	opt.T1, opt.T2 = 4, 40
	res, err := core.Route(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	m := Evaluate(res.Grid, res.Routes)
	if m.Wirelength < res.Report.Quality.Wirelength {
		t.Fatalf("DR wirelength %d below GR wirelength %d", m.Wirelength, res.Report.Quality.Wirelength)
	}
	if m.Vias < res.Report.Quality.Vias {
		t.Fatalf("DR vias %d below GR vias %d", m.Vias, res.Report.Quality.Vias)
	}
	// Determinism.
	if m2 := Evaluate(res.Grid, res.Routes); m2 != m {
		t.Fatalf("DR evaluation nondeterministic: %+v vs %+v", m, m2)
	}
}

// TestMergeRuns: one net's overlapping pieces on a panel become its
// maximal runs of distinct edges, one interval each.
func TestMergeRuns(t *testing.T) {
	r := buildRoute(1, func(b *route.Builder) {
		for _, xs := range [][2]int{{1, 4}, {2, 3}, {7, 8}, {9, 11}, {10, 11}} {
			b.Seg(3, geom.Point{X: xs[0], Y: 5}, geom.Point{X: xs[1], Y: 5})
		}
	})
	got := collectPanels(shapeGrid, []*route.NetRoute{r})[panelKey{3, 5}]
	want := []interval{{net: 1, lo: 1, hi: 3}, {net: 1, lo: 7, hi: 7}, {net: 1, lo: 9, hi: 10}}
	if len(got) != len(want) {
		t.Fatalf("runs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("run %d = %v, want %v", i, got[i], want[i])
		}
	}
}
