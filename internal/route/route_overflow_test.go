package route

import (
	"testing"

	"fastgr/internal/geom"
)

func TestHasOverflowWire(t *testing.T) {
	g := testGrid()
	r := build(g, 1, func(b *Builder) { b.Seg(3, geom.Point{X: 2, Y: 2}, geom.Point{X: 6, Y: 2}) })
	r.Commit(g)
	if r.HasOverflow(g) {
		t.Fatal("route on empty grid reports overflow")
	}
	// Saturate one edge the route uses (capacity 10).
	g.AddSegDemand(3, geom.Point{X: 3, Y: 2}, geom.Point{X: 4, Y: 2}, 10)
	if !r.HasOverflow(g) {
		t.Fatal("route through over-capacity edge not flagged")
	}
	// Saturate an edge the route does NOT use: still flagged only if its own
	// edges overflow.
	r.Uncommit(g)
	g.AddSegDemand(3, geom.Point{X: 3, Y: 2}, geom.Point{X: 4, Y: 2}, -10)
	g.AddSegDemand(3, geom.Point{X: 8, Y: 8}, geom.Point{X: 9, Y: 8}, 30)
	r.Commit(g)
	if r.HasOverflow(g) {
		t.Fatal("overflow on unrelated edge flagged")
	}
}

func TestHasOverflowVia(t *testing.T) {
	g := testGrid() // via capacity 8
	r := build(g, 2, func(b *Builder) { b.Via(5, 5, 1, 3) })
	r.Commit(g)
	if r.HasOverflow(g) {
		t.Fatal("fresh via stack reports overflow")
	}
	for i := 0; i < 9; i++ {
		g.AddViaStackDemand(5, 5, 1, 2, 1)
	}
	if !r.HasOverflow(g) {
		t.Fatal("via overflow not flagged")
	}
}

func TestHasOverflowEmptyRoute(t *testing.T) {
	g := testGrid()
	r := build(g, 3, func(*Builder) {})
	if r.HasOverflow(g) {
		t.Fatal("empty route reports overflow")
	}
}
