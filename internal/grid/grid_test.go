package grid

import (
	"math"
	"testing"
	"testing/quick"

	"fastgr/internal/design"
	"fastgr/internal/geom"
)

func testDesign(layers int) *design.Design {
	caps := make([]int, layers)
	caps[0] = 1
	for i := 1; i < layers; i++ {
		caps[i] = 10
	}
	return &design.Design{
		Name: "t", GridW: 12, GridH: 10, NumLayers: layers,
		LayerCapacity: caps, ViaCapacity: 4,
		Nets: []*design.Net{{ID: 0, Name: "n", Pins: []design.Pin{
			{Pos: geom.Point{X: 0, Y: 0}, Layer: 1},
			{Pos: geom.Point{X: 5, Y: 5}, Layer: 1},
		}}},
	}
}

func TestLayerDirections(t *testing.T) {
	g := NewFromDesign(testDesign(5))
	for l := 1; l <= 5; l++ {
		want := Horizontal
		if l%2 == 0 {
			want = Vertical
		}
		if g.Dir(l) != want {
			t.Errorf("layer %d dir = %v, want %v", l, g.Dir(l), want)
		}
	}
	if Horizontal.String() != "H" || Vertical.String() != "V" {
		t.Error("Dir.String wrong")
	}
}

func TestCapacityInitialization(t *testing.T) {
	g := NewFromDesign(testDesign(5))
	if g.WireCap(1, 3, 3) != 1 {
		t.Errorf("layer 1 cap = %d, want 1", g.WireCap(1, 3, 3))
	}
	if g.WireCap(3, 3, 3) != 10 {
		t.Errorf("layer 3 cap = %d, want 10", g.WireCap(3, 3, 3))
	}
	if g.ViaCap(1) != 4 {
		t.Errorf("via cap = %d, want 4", g.ViaCap(1))
	}
}

func TestBlockageReducesCapacity(t *testing.T) {
	d := testDesign(5)
	d.Blockages = []design.Blockage{{
		Layer:   3,
		Region:  geom.NewRect(geom.Point{X: 2, Y: 2}, geom.Point{X: 4, Y: 4}),
		Density: 0.5,
	}}
	g := NewFromDesign(d)
	if got := g.WireCap(3, 3, 3); got != 5 {
		t.Errorf("blocked cap = %d, want 5", got)
	}
	if got := g.WireCap(3, 7, 7); got != 10 {
		t.Errorf("unblocked cap = %d, want 10", got)
	}
	// Full-density blockage zeroes the edge.
	d.Blockages[0].Density = 1.0
	g = NewFromDesign(d)
	if got := g.WireCap(3, 3, 3); got != 0 {
		t.Errorf("fully blocked cap = %d, want 0", got)
	}
}

func TestSegDemandCommitAndRip(t *testing.T) {
	g := NewFromDesign(testDesign(5))
	a, b := geom.Point{X: 2, Y: 4}, geom.Point{X: 7, Y: 4}
	g.AddSegDemand(3, a, b, 1)
	for x := 2; x < 7; x++ {
		if g.WireDem(3, x, 4) != 1 {
			t.Fatalf("demand at x=%d is %d", x, g.WireDem(3, x, 4))
		}
	}
	if g.WireDem(3, 1, 4) != 0 || g.WireDem(3, 7, 4) != 0 {
		t.Fatal("demand leaked outside segment")
	}
	wire, _ := g.TotalDemand()
	if wire != 5 {
		t.Fatalf("total wire demand = %d, want 5", wire)
	}
	// Reverse endpoints must hit the same edges.
	g.AddSegDemand(3, b, a, -1)
	wire, _ = g.TotalDemand()
	if wire != 0 {
		t.Fatalf("after rip-up total demand = %d, want 0", wire)
	}
}

func TestVerticalSegDemand(t *testing.T) {
	g := NewFromDesign(testDesign(5))
	g.AddSegDemand(2, geom.Point{X: 3, Y: 1}, geom.Point{X: 3, Y: 6}, 2)
	for y := 1; y < 6; y++ {
		if g.WireDem(2, 3, y) != 2 {
			t.Fatalf("demand at y=%d is %d", y, g.WireDem(2, 3, y))
		}
	}
}

func TestMisalignedSegmentPanics(t *testing.T) {
	g := NewFromDesign(testDesign(5))
	for _, fn := range []func(){
		func() { g.SegCost(1, geom.Point{X: 0, Y: 0}, geom.Point{X: 3, Y: 3}) },
		func() { g.SegCost(2, geom.Point{X: 0, Y: 0}, geom.Point{X: 3, Y: 3}) },
		func() { g.AddSegDemand(1, geom.Point{X: 0, Y: 0}, geom.Point{X: 3, Y: 3}, 1) },
		func() { g.AddSegDemand(2, geom.Point{X: 0, Y: 0}, geom.Point{X: 3, Y: 3}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("misaligned segment did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestDemandUnderflowPanics(t *testing.T) {
	g := NewFromDesign(testDesign(5))
	defer func() {
		if recover() == nil {
			t.Fatal("demand underflow did not panic")
		}
	}()
	g.AddSegDemand(3, geom.Point{X: 0, Y: 0}, geom.Point{X: 2, Y: 0}, -1)
}

func TestViaStack(t *testing.T) {
	g := NewFromDesign(testDesign(5))
	g.AddViaStackDemand(4, 4, 1, 4, 1)
	for l := 1; l < 4; l++ {
		if g.ViaDem(4, 4, l) != 1 {
			t.Fatalf("via demand at layer %d is %d", l, g.ViaDem(4, 4, l))
		}
	}
	if g.ViaDem(4, 4, 4) != 0 {
		t.Fatal("via demand above stack")
	}
	if g.ViaStackCost(4, 4, 2, 2) != 0 {
		t.Fatal("same-layer via stack should cost 0")
	}
	// Symmetric in layer order.
	if g.ViaStackCost(4, 4, 1, 4) != g.ViaStackCost(4, 4, 4, 1) {
		t.Fatal("via stack cost not symmetric")
	}
	g.AddViaStackDemand(4, 4, 4, 1, -1)
	_, via := g.TotalDemand()
	if via != 0 {
		t.Fatalf("via demand after rip = %d", via)
	}
}

func TestCostMonotoneInDemand(t *testing.T) {
	g := NewFromDesign(testDesign(5))
	prev := g.WireCost(3, 5, 5)
	if prev < g.Params.UnitWire {
		t.Fatal("cost below wire unit")
	}
	for i := 0; i < 15; i++ {
		g.addWireDemand(3, g.WireIndex(3, 5, 5), 1)
		c := g.WireCost(3, 5, 5)
		if c < prev {
			t.Fatalf("cost decreased with demand at step %d: %v < %v", i, c, prev)
		}
		prev = c
	}
	// Saturates below unit + weight (+ no blocked penalty here).
	if prev > g.Params.UnitWire+g.Params.CongestionWeight {
		t.Fatalf("cost %v exceeds saturation bound", prev)
	}
}

func TestBlockedEdgePenalty(t *testing.T) {
	d := testDesign(5)
	d.Blockages = []design.Blockage{{
		Layer:   3,
		Region:  geom.NewRect(geom.Point{X: 2, Y: 2}, geom.Point{X: 2, Y: 2}),
		Density: 1.0,
	}}
	g := NewFromDesign(d)
	blocked := g.WireCost(3, 2, 2)
	free := g.WireCost(3, 6, 6)
	if blocked <= free+g.Params.BlockedPenalty/2 {
		t.Fatalf("blocked edge cost %v not clearly above free %v", blocked, free)
	}
}

func TestSegCostAdditive(t *testing.T) {
	g := NewFromDesign(testDesign(5))
	a := geom.Point{X: 1, Y: 3}
	m := geom.Point{X: 5, Y: 3}
	b := geom.Point{X: 9, Y: 3}
	whole := g.SegCost(3, a, b)
	parts := g.SegCost(3, a, m) + g.SegCost(3, m, b)
	if math.Abs(whole-parts) > 1e-9 {
		t.Fatalf("SegCost not additive: %v vs %v", whole, parts)
	}
	if g.SegCost(3, a, a) != 0 {
		t.Fatal("zero-length segment should cost 0")
	}
}

func TestOverflowAccounting(t *testing.T) {
	g := NewFromDesign(testDesign(5))
	// Push demand 13 through a capacity-10 edge: overflow 3.
	for i := 0; i < 13; i++ {
		g.AddSegDemand(3, geom.Point{X: 4, Y: 4}, geom.Point{X: 5, Y: 4}, 1)
	}
	wire, via := g.Overflow()
	if wire != 3 || via != 0 {
		t.Fatalf("overflow = (%d,%d), want (3,0)", wire, via)
	}
	// Push via demand past cap 4.
	for i := 0; i < 6; i++ {
		g.AddViaStackDemand(1, 1, 2, 3, 1)
	}
	_, via = g.Overflow()
	if via != 2 {
		t.Fatalf("via overflow = %d, want 2", via)
	}
}

func TestCongestionMap2D(t *testing.T) {
	g := NewFromDesign(testDesign(5))
	g.AddSegDemand(3, geom.Point{X: 2, Y: 2}, geom.Point{X: 4, Y: 2}, 1)
	m := g.CongestionMap2D()
	if len(m) != g.W*g.H {
		t.Fatalf("map size %d", len(m))
	}
	if m[2*g.W+2].Demand == 0 || m[2*g.W+3].Demand == 0 {
		t.Fatal("demand missing from congestion map")
	}
	total := 0
	for _, c := range m {
		total += c.Demand
	}
	if total != 2 {
		t.Fatalf("map total demand = %d, want 2", total)
	}
	for _, c := range m {
		if c.Capacity < 0 {
			t.Fatal("negative capacity in map")
		}
	}
}

func TestHasWireEdgeBounds(t *testing.T) {
	g := NewFromDesign(testDesign(5))
	if !g.HasWireEdge(1, 0, 0) {
		t.Error("edge at origin missing")
	}
	if g.HasWireEdge(1, g.W-1, 0) {
		t.Error("horizontal edge off right boundary")
	}
	if !g.HasWireEdge(2, g.W-1, 0) {
		t.Error("vertical edge at right boundary missing")
	}
	if g.HasWireEdge(2, 0, g.H-1) {
		t.Error("vertical edge off top boundary")
	}
	if g.HasWireEdge(1, -1, 0) || g.HasWireEdge(1, 0, g.H) {
		t.Error("out-of-bounds edge accepted")
	}
}

// Property: demand after a sequence of balanced commit/rip pairs is zero and
// overflow is zero.
func TestDemandBalanceProperty(t *testing.T) {
	f := func(ops []struct {
		L      uint8
		X1, X2 uint8
		Y      uint8
	}) bool {
		g := NewFromDesign(testDesign(5))
		type seg struct {
			l    int
			a, b geom.Point
		}
		var committed []seg
		for _, op := range ops {
			l := 1 + int(op.L)%5
			var a, b geom.Point
			if g.Dir(l) == Horizontal {
				y := int(op.Y) % g.H
				a = geom.Point{X: int(op.X1) % g.W, Y: y}
				b = geom.Point{X: int(op.X2) % g.W, Y: y}
			} else {
				x := int(op.Y) % g.W
				a = geom.Point{X: x, Y: int(op.X1) % g.H}
				b = geom.Point{X: x, Y: int(op.X2) % g.H}
			}
			g.AddSegDemand(l, a, b, 1)
			committed = append(committed, seg{l, a, b})
		}
		for _, s := range committed {
			g.AddSegDemand(s.l, s.b, s.a, -1)
		}
		wire, via := g.TotalDemand()
		return wire == 0 && via == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGridFromGeneratedDesign(t *testing.T) {
	d := design.MustGenerate("18test5m", 0.003)
	g := NewFromDesign(d)
	if g.W != d.GridW || g.H != d.GridH || g.L != 5 {
		t.Fatalf("grid dims %dx%dx%d", g.W, g.H, g.L)
	}
	wire, via := g.Overflow()
	if wire != 0 || via != 0 {
		t.Fatal("fresh grid has overflow")
	}
}
