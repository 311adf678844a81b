package route

import (
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/stt"
)

func testGrid() *grid.Graph {
	d := &design.Design{
		Name: "t", GridW: 16, GridH: 16, NumLayers: 4,
		LayerCapacity: []int{1, 10, 10, 10}, ViaCapacity: 8,
		Nets: []*design.Net{{ID: 0, Name: "n", Pins: []design.Pin{
			{Pos: geom.Point{X: 0, Y: 0}, Layer: 1},
			{Pos: geom.Point{X: 5, Y: 5}, Layer: 1},
		}}},
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

func TestDecomposeOrderIsBottomUp(t *testing.T) {
	// Star: root (5,5) with pins around it -> every edge's child deeper than parent.
	net := netOf(geom.Point{X: 5, Y: 5}, geom.Point{X: 0, Y: 5}, geom.Point{X: 10, Y: 5},
		geom.Point{X: 5, Y: 0}, geom.Point{X: 5, Y: 10})
	tr := stt.Build(net)
	tps := Decompose(nil, tr)
	if len(tps) != tr.NumEdges() {
		t.Fatalf("decomposed %d edges, tree has %d", len(tps), tr.NumEdges())
	}
	// Bottom-up: when edge (c->p) appears, all edges with parent c must
	// already have appeared.
	seenChild := map[int]bool{}
	childrenDone := func(node int) bool {
		for _, ch := range tr.Children(node) {
			if !seenChild[int(ch)] {
				return false
			}
		}
		return true
	}
	for _, tp := range tps {
		if !childrenDone(tp.Child) {
			t.Fatalf("edge for node %d scheduled before its children", tp.Child)
		}
		seenChild[tp.Child] = true
	}
}

func TestDecomposeChainMatchesPaperExample(t *testing.T) {
	// A path P6-P5-P4-P3-P2-P1 rooted at P6 (Fig. 4): DFS preorder is
	// P6..P1, reverse order routes e1 (P1->P2) first.
	pts := []geom.Point{{X: 10, Y: 0}, {X: 8, Y: 0}, {X: 6, Y: 0}, {X: 4, Y: 0}, {X: 2, Y: 0}, {X: 0, Y: 0}}
	net := netOf(pts...) // first pin (root) = P6 at (10,0)
	tr := stt.Build(net)
	tps := Decompose(nil, tr)
	if len(tps) != 5 {
		t.Fatalf("chain of 6 gives %d two-pin nets", len(tps))
	}
	// First routed edge must be the deepest (P1 at (0,0)).
	if tps[0].Source() != (geom.Point{X: 0, Y: 0}) {
		t.Fatalf("first routed edge starts at %v, want (0,0)", tps[0].Source())
	}
	// Last routed edge must target the root.
	last := tps[len(tps)-1]
	if last.Target() != (geom.Point{X: 10, Y: 0}) {
		t.Fatalf("last routed edge targets %v, want root (10,0)", last.Target())
	}
}

func TestTwoPinAccessors(t *testing.T) {
	net := netOf(geom.Point{X: 1, Y: 2}, geom.Point{X: 4, Y: 6})
	tr := stt.Build(net)
	tps := Decompose(nil, tr)
	tp := tps[0]
	if tp.HPWL() != 7 {
		t.Fatalf("HPWL = %d, want 7", tp.HPWL())
	}
	bb := tp.BBox()
	if !bb.Contains(tp.Source()) || !bb.Contains(tp.Target()) {
		t.Fatal("bbox misses endpoints")
	}
}

// build seals the pieces add gives into net id's route on g.
func build(g *grid.Graph, id int, add func(b *Builder)) *NetRoute {
	var b Builder
	b.Reset(g, id)
	add(&b)
	return b.Build()
}

func buildLRoute() *NetRoute {
	return build(testGrid(), 1, func(b *Builder) {
		b.Via(0, 0, 1, 3)                                        // pin up to layer 3
		b.Seg(3, geom.Point{X: 0, Y: 0}, geom.Point{X: 5, Y: 0}) // horizontal on l3
		b.Via(5, 0, 2, 3)                                        // down to l2
		b.Seg(2, geom.Point{X: 5, Y: 0}, geom.Point{X: 5, Y: 5}) // vertical on l2
		b.Via(5, 5, 1, 2)                                        // down to pin layer
	})
}

func TestCommitUncommitBalanced(t *testing.T) {
	g := testGrid()
	r := buildLRoute()
	r.Commit(g)
	wire, via := g.TotalDemand()
	if wire != 10 {
		t.Fatalf("wire demand = %d, want 10", wire)
	}
	if via != 4 {
		t.Fatalf("via demand = %d, want 4", via)
	}
	if !r.Committed() {
		t.Fatal("Committed() false after Commit")
	}
	r.Uncommit(g)
	wire, via = g.TotalDemand()
	if wire != 0 || via != 0 {
		t.Fatalf("demand after uncommit: %d,%d", wire, via)
	}
}

func TestDoubleCommitPanics(t *testing.T) {
	g := testGrid()
	r := buildLRoute()
	r.Commit(g)
	defer func() {
		if recover() == nil {
			t.Fatal("double commit did not panic")
		}
	}()
	r.Commit(g)
}

func TestUncommitWithoutCommitPanics(t *testing.T) {
	g := testGrid()
	r := buildLRoute()
	defer func() {
		if recover() == nil {
			t.Fatal("uncommit without commit did not panic")
		}
	}()
	r.Uncommit(g)
}

func TestOverlappingSegmentsCountOnce(t *testing.T) {
	g := testGrid()
	r := build(g, 2, func(b *Builder) {
		b.Seg(3, geom.Point{X: 0, Y: 0}, geom.Point{X: 6, Y: 0})
		b.Seg(3, geom.Point{X: 3, Y: 0}, geom.Point{X: 9, Y: 0}) // overlaps [3,6)
	})
	if got := r.Wirelength(g); got != 9 {
		t.Fatalf("Wirelength = %d, want 9 (dedup)", got)
	}
	r.Commit(g)
	wire, _ := g.TotalDemand()
	if wire != 9 {
		t.Fatalf("committed wire demand = %d, want 9", wire)
	}
	if g.WireDem(3, 4, 0) != 1 {
		t.Fatalf("overlap edge demand = %d, want 1", g.WireDem(3, 4, 0))
	}
	r.Uncommit(g)
}

func TestViaDedup(t *testing.T) {
	g := testGrid()
	r := build(g, 3, func(b *Builder) {
		b.Via(2, 2, 1, 3)
		b.Via(2, 2, 2, 4) // overlaps [2,3]
	})
	if got := r.ViaCount(g); got != 3 {
		t.Fatalf("ViaCount = %d, want 3 (layers 1-2, 2-3, 3-4)", got)
	}
}

// TestZeroLengthHelpers: zero-length pieces add no edge; an inverted via
// span is refused, not normalized.
func TestZeroLengthHelpers(t *testing.T) {
	g := testGrid()
	r := build(g, 1, func(b *Builder) {
		b.Seg(3, geom.Point{X: 1, Y: 1}, geom.Point{X: 1, Y: 1})
		b.Via(1, 1, 2, 2)
	})
	if len(r.Edges()) != 0 {
		t.Fatalf("zero-length geometry added edges %v", r.Edges())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("inverted via span accepted")
		}
	}()
	build(g, 1, func(b *Builder) { b.Via(1, 1, 3, 1) })
}

func TestValidateConnectivity(t *testing.T) {
	g := testGrid()
	r := buildLRoute()
	pins := []geom.Point3{{X: 0, Y: 0, Layer: 1}, {X: 5, Y: 5, Layer: 1}}
	if err := r.Validate(g, pins); err != nil {
		t.Fatalf("valid route rejected: %v", err)
	}
	// Missing pin layer: pin at layer 4 is not reached.
	bad := []geom.Point3{{X: 0, Y: 0, Layer: 4}, {X: 5, Y: 5, Layer: 1}}
	if r.Validate(g, bad) == nil {
		t.Fatal("unreached pin layer accepted")
	}
	// Disconnected geometry.
	r2 := build(g, 4, func(b *Builder) {
		b.Seg(3, geom.Point{X: 0, Y: 0}, geom.Point{X: 2, Y: 0})
		b.Seg(3, geom.Point{X: 5, Y: 5}, geom.Point{X: 7, Y: 5})
	})
	pins2 := []geom.Point3{{X: 0, Y: 0, Layer: 3}, {X: 5, Y: 5, Layer: 3}}
	if r2.Validate(g, pins2) == nil {
		t.Fatal("disconnected route accepted")
	}
}

// TestMisalignedSegPanicsOnCommit: a diagonal segment never gets as far
// as a commit — the builder refuses it.
func TestMisalignedSegPanicsOnCommit(t *testing.T) {
	g := testGrid()
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned segment accepted")
		}
	}()
	build(g, 5, func(b *Builder) { b.Seg(3, geom.Point{X: 0, Y: 0}, geom.Point{X: 2, Y: 2}) }).Commit(g)
}

func TestPinTerminals(t *testing.T) {
	net := &design.Net{ID: 7, Name: "n", Pins: []design.Pin{
		{Pos: geom.Point{X: 1, Y: 1}, Layer: 1},
		{Pos: geom.Point{X: 1, Y: 1}, Layer: 2},
		{Pos: geom.Point{X: 6, Y: 3}, Layer: 1},
	}}
	tr := stt.Build(net)
	pins := PinTerminals(tr)
	if len(pins) != 3 {
		t.Fatalf("PinTerminals = %d, want 3", len(pins))
	}
}
