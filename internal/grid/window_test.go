package grid

import (
	"math"
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

// TestWindowViewSegCostExact: a warm partial window prices a run inside it
// as the difference of two prefix sums folded from the window's origin —
// bit-identical to a fresh build of the same window and within rounding of
// the edge walk — and walks a run that straddles its edge, which then
// equals the cold graph's walk exactly.
func TestWindowViewSegCostExact(t *testing.T) {
	g := NewFromDesign(design.MustGenerate("18test5m", 0.003))
	congest(g, 11, 4000)
	win := geom.Rect{Lo: geom.Point{X: 2, Y: 2}, Hi: geom.Point{X: g.W - 4, Y: g.H - 4}}
	v := g.WindowView(win)
	v.WarmCostCache()
	congest(v, 12, 500) // written through, prefix runs re-summed below
	v.WarmCostCache()
	fresh := g.WindowView(win)
	fresh.WarmCostCache()
	// at is the point k steps along layer l's direction from the start of
	// line c; fold sums the window's edges on that line before step k.
	at := func(l, c, k int) geom.Point {
		if g.Dir(l) == Horizontal {
			return geom.Point{X: k, Y: c}
		}
		return geom.Point{X: c, Y: k}
	}
	fold := func(l, c, lo, k int) float64 {
		sum := 0.0
		for i := lo; i < k; i++ {
			p := at(l, c, i)
			sum += g.wireCostAt(l, g.WireIndex(l, p.X, p.Y))
		}
		return sum
	}
	for l := 1; l <= g.L; l++ {
		lo, hi, clo, chi := win.Lo.X, win.Hi.X, win.Lo.Y, win.Hi.Y
		if g.Dir(l) == Vertical {
			lo, hi, clo, chi = win.Lo.Y, win.Hi.Y, win.Lo.X, win.Hi.X
		}
		for _, c := range []int{clo, (clo + chi) / 2, chi} {
			// Inside: every edge starts in the window, the last at hi.
			a, b := at(l, c, lo+1), at(l, c, hi+1)
			got := v.SegCost(l, a, b)
			if want := fold(l, c, lo, hi+1) - fold(l, c, lo, lo+1); got != want {
				t.Fatalf("layer %d run %v-%v: %v, prefix difference %v", l, a, b, got, want)
			}
			if want := fresh.SegCost(l, a, b); got != want {
				t.Fatalf("layer %d run %v-%v: %v, fresh build %v", l, a, b, got, want)
			}
			if walk := g.SegCost(l, a, b); math.Abs(got-walk) > 1e-9 {
				t.Fatalf("layer %d run %v-%v: %v, edge walk %v", l, a, b, got, walk)
			}
			// Straddling either edge of the window: a walk.
			for _, r := range [][2]geom.Point{{at(l, c, lo-1), at(l, c, lo+2)}, {at(l, c, hi-1), at(l, c, hi+2)}} {
				if got, want := v.SegCost(l, r[0], r[1]), g.SegCost(l, r[0], r[1]); got != want {
					t.Fatalf("layer %d straddling run %v-%v: %v, cold walk %v", l, r[0], r[1], got, want)
				}
			}
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
	g.WarmCostCache()
	v.WarmCostCache()
	a, b := geom.Point{X: 1, Y: 4}, geom.Point{X: g.W - 2, Y: 4}
	if got, want := v.SegCost(1, a, b), g.SegCost(1, a, b); got != want {
		t.Fatalf("full view SegCost %v != parent %v", got, want)
	}
}

// TestCostFieldSlots: on the full grid, on interior windows and on windows
// flush against the far sides, every wire edge starting in the field's
// window and every via edge in it sits at its strided slot, bit-identical
// to the direct formula, and stays so through write-through mutations.
func TestCostFieldSlots(t *testing.T) {
	g := NewFromDesign(design.MustGenerate("18test5m", 0.003))
	congest(g, 9, 3000)
	for _, win := range []geom.Rect{
		{Hi: geom.Point{X: g.W - 1, Y: g.H - 1}},
		{Lo: geom.Point{X: 5, Y: 3}, Hi: geom.Point{X: g.W/2 + 3, Y: g.H/2 + 1}},
		{Lo: geom.Point{X: g.W - 4, Y: g.H - 6}, Hi: geom.Point{X: g.W - 1, Y: g.H - 1}},
		{Lo: geom.Point{X: g.W - 1, Y: 2}, Hi: geom.Point{X: g.W - 1, Y: 9}},
	} {
		v := g.WindowView(win)
		if v.CostField() != nil {
			t.Fatal("cold view serves a cost field")
		}
		v.WarmCostCache()
		check := func(stage string) {
			f := v.CostField()
			if f.Win != win {
				t.Fatalf("window %v: field window %v", win, f.Win)
			}
			for l := 1; l <= g.L; l++ {
				for y := win.Lo.Y; y <= win.Hi.Y; y++ {
					for x := win.Lo.X; x <= win.Hi.X; x++ {
						if g.HasWireEdge(l, x, y) {
							if got, want := f.Wire[l-1][f.WireSlot(l, x, y)], g.wireCostAt(l, g.WireIndex(l, x, y)); got != want {
								t.Fatalf("%s window %v layer %d (%d,%d): field %v != direct %v", stage, win, l, x, y, got, want)
							}
						}
						if l < g.L {
							if got, want := f.Via[l-1][f.ViaSlot(x, y)], g.viaCostAt(l, y*g.W+x); got != want {
								t.Fatalf("%s window %v via %d (%d,%d): field %v != direct %v", stage, win, l, x, y, got, want)
							}
						}
					}
				}
			}
		}
		check("built")
		congest(v, 10, 500)
		check("written through")
	}
}
