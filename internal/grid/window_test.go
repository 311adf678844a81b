package grid

import (
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/geom"
)

// TestWindowViewMatchesDirect: a warm windowed view answers every cost
// query inside its window bit-identically to the direct formula, and
// queries outside the window fall back to the formula (still correct).
func TestWindowViewMatchesDirect(t *testing.T) {
	g := NewFromDesign(design.MustGenerate("18test5m", 0.003))
	congest(g, 7, 4000)
	win := geom.Rect{Lo: geom.Point{X: 5, Y: 3}, Hi: geom.Point{X: g.W/2 + 3, Y: g.H/2 + 1}}
	v := g.WindowView(win)
	if v.cc.full {
		t.Fatal("partial window marked full")
	}
	v.WarmCostCache()
	for l := 1; l <= g.L; l++ {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				if g.HasWireEdge(l, x, y) {
					if got, want := v.WireCost(l, x, y), g.wireCostAt(l, g.WireIndex(l, x, y)); got != want {
						t.Fatalf("layer %d (%d,%d): view %v != direct %v", l, x, y, got, want)
					}
				}
			}
		}
	}
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			if got, want := v.ViaStackCost(x, y, 1, g.L), g.ViaStackCost(x, y, 1, g.L); got != want {
				t.Fatalf("via stack (%d,%d): view %v != parent %v", x, y, got, want)
			}
		}
	}
}

// TestWindowViewSegCostExact: windowed caches must not take the prefix-sum
// shortcut (its rounding differs from the edge walk), so SegCost through a
// warm view is bit-identical to SegCost on a cold graph.
func TestWindowViewSegCostExact(t *testing.T) {
	g := NewFromDesign(design.MustGenerate("18test5m", 0.003))
	congest(g, 11, 4000)
	win := geom.Rect{Lo: geom.Point{}, Hi: geom.Point{X: g.W - 2, Y: g.H - 2}}
	v := g.WindowView(win)
	v.WarmCostCache()
	for l := 1; l <= g.L; l++ {
		a := geom.Point{X: 2, Y: 2}
		var b geom.Point
		if g.Dir(l) == Horizontal {
			b = geom.Point{X: g.W - 4, Y: 2}
		} else {
			b = geom.Point{X: 2, Y: g.H - 4}
		}
		if got, want := v.SegCost(l, a, b), g.SegCost(l, a, b); got != want {
			t.Fatalf("layer %d seg %v-%v: view %v != cold %v", l, a, b, got, want)
		}
	}
}

// TestWindowViewInvalidation: a demand mutation through the view is written
// through to the view's cache; a mutation through the parent (whose cache is
// cold) reaches the shared demand arrays but not the view's cached values.
func TestWindowViewInvalidation(t *testing.T) {
	g := NewFromDesign(design.MustGenerate("18test5m", 0.003))
	win := geom.Rect{Lo: geom.Point{X: 2, Y: 2}, Hi: geom.Point{X: 20, Y: 20}}
	v := g.WindowView(win)
	v.WarmCostCache()

	a, b := geom.Point{X: 4, Y: 5}, geom.Point{X: 9, Y: 5}
	before := v.WireCost(1, 4, 5)
	v.AddSegDemand(1, a, b, 3)
	v.WarmCostCache()
	if got, want := v.WireCost(1, 4, 5), g.wireCostAt(1, g.WireIndex(1, 4, 5)); got != want {
		t.Fatalf("after view mutation: cached %v != direct %v", got, want)
	}
	if v.WireCost(1, 4, 5) == before {
		t.Fatal("demand mutation did not change the cached cost")
	}

	// Parent-side mutation: the view's cached entry is rewritten only if
	// the mutation flows through the view. Mutating through the parent
	// leaves the view's values untouched, so the protocol requires a fresh
	// view after coordinator mutations — simulate that and check
	// correctness.
	g.AddSegDemand(1, a, b, 2)
	v2 := g.WindowView(win)
	v2.WarmCostCache()
	if got, want := v2.WireCost(1, 4, 5), g.wireCostAt(1, g.WireIndex(1, 4, 5)); got != want {
		t.Fatalf("fresh view after parent mutation: cached %v != direct %v", got, want)
	}

	// Mutations outside the window are ignored without panicking.
	v2.AddSegDemand(1, geom.Point{X: 30, Y: 30}, geom.Point{X: 33, Y: 30}, 1)
	v2.AddViaStackDemand(30, 30, 1, 2, 1)
}

// TestWindowViewFullEqualsGlobal: a view covering the whole grid behaves
// exactly like the graph's own cache, prefix sums included.
func TestWindowViewFullEqualsGlobal(t *testing.T) {
	g := NewFromDesign(design.MustGenerate("18test5m", 0.003))
	congest(g, 13, 2000)
	v := g.WindowView(geom.Rect{Lo: geom.Point{}, Hi: geom.Point{X: g.W - 1, Y: g.H - 1}})
	if !v.cc.full {
		t.Fatal("grid-covering window not marked full")
	}
	g.WarmCostCache()
	v.WarmCostCache()
	a, b := geom.Point{X: 1, Y: 4}, geom.Point{X: g.W - 2, Y: 4}
	if got, want := v.SegCost(1, a, b), g.SegCost(1, a, b); got != want {
		t.Fatalf("full view SegCost %v != parent %v", got, want)
	}
}
