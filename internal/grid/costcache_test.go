package grid

import (
	"math"
	"math/rand"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/obs"
	"fastgr/internal/par"
)

// congest seeds deterministic non-uniform demand so cached values differ
// edge to edge.
func congest(g *Graph, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		l := 1 + rng.Intn(g.L)
		x, y := rng.Intn(g.W-1), rng.Intn(g.H-1)
		if g.HasWireEdge(l, x, y) {
			if g.Dir(l) == Horizontal {
				g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x + 1, Y: y}, rng.Intn(8))
			} else {
				g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x, Y: y + 1}, rng.Intn(8))
			}
		}
		g.AddViaStackDemand(rng.Intn(g.W), rng.Intn(g.H), 1, 1+rng.Intn(g.L-1)+1, rng.Intn(3))
	}
}

// assertCacheMatchesDirect checks every cached wire and via edge against the
// direct formula. Cached values must be bit-identical: the build and every
// write-through run the same code as the uncached path.
func assertCacheMatchesDirect(t *testing.T, g *Graph) {
	t.Helper()
	if !g.CostCacheBuilt() {
		t.Fatal("cache not built")
	}
	for l := 1; l <= g.L; l++ {
		for i := 0; i < g.numWireEdges(l); i++ {
			if got, want := g.cc.wireVal[l-1][i], g.wireCostAt(l, i); got != want {
				t.Fatalf("layer %d edge %d cached %v != direct %v", l, i, got, want)
			}
		}
	}
	for b := 0; b < g.L-1; b++ {
		for cell := 0; cell < g.W*g.H; cell++ {
			if got, want := g.cc.viaVal[b][cell], g.viaCostAt(b+1, cell); got != want {
				t.Fatalf("via boundary %d cell %d cached %v != direct %v", b, cell, got, want)
			}
		}
	}
}

// TestCostCacheExactAfterWarm: a warm cache answers WireCost/ViaEdgeCost
// bit-identically to the direct formula on a congested grid with blockages.
func TestCostCacheExactAfterWarm(t *testing.T) {
	d := testDesign(5)
	d.Blockages = []design.Blockage{{
		Layer: 3, Region: geom.NewRect(geom.Point{X: 2, Y: 2}, geom.Point{X: 5, Y: 4}), Density: 1.0,
	}}
	g := NewFromDesign(d)
	congest(g, 1, 300)
	g.WarmCostCache()
	assertCacheMatchesDirect(t, g)

	// The public accessors must serve the cached value.
	for l := 1; l <= g.L; l++ {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				if g.HasWireEdge(l, x, y) {
					if got, want := g.WireCost(l, x, y), g.wireCostAt(l, g.WireIndex(l, x, y)); got != want {
						t.Fatalf("WireCost(%d,%d,%d) = %v, want %v", l, x, y, got, want)
					}
				}
				if l < g.L {
					if got, want := g.ViaEdgeCost(x, y, l), g.viaCostAt(l, y*g.W+x); got != want {
						t.Fatalf("ViaEdgeCost(%d,%d,%d) = %v, want %v", x, y, l, got, want)
					}
				}
			}
		}
	}
}

// TestCostCacheInvalidation: demand and history mutations after a warm must
// be visible immediately (written through) and the prefix sums caught up by
// the next warm.
func TestCostCacheInvalidation(t *testing.T) {
	g := NewFromDesign(testDesign(5))
	congest(g, 2, 200)
	g.WarmCostCache()

	a, b := geom.Point{X: 3, Y: 4}, geom.Point{X: 7, Y: 4}
	before := g.WireCost(1, 3, 4)
	g.AddSegDemand(1, a, b, 2)
	after := g.WireCost(1, 3, 4)
	if after == before {
		t.Fatal("WireCost unchanged after demand mutation — stale cache served")
	}
	if want := g.wireCostAt(1, g.WireIndex(1, 3, 4)); after != want {
		t.Fatalf("written-through value %v != direct %v", after, want)
	}
	// SegCost over the dirty line must fall back to the per-edge walk.
	var walk float64
	for x := a.X; x < b.X; x++ {
		walk += g.WireCost(1, x, a.Y)
	}
	if got := g.SegCost(1, a, b); got != walk {
		t.Fatalf("SegCost on dirty line = %v, want per-edge walk %v", got, walk)
	}

	vBefore := g.ViaStackCost(2, 2, 1, 4)
	g.AddViaStackDemand(2, 2, 1, 4, 1)
	if got := g.ViaStackCost(2, 2, 1, 4); got == vBefore {
		t.Fatal("ViaStackCost unchanged after via demand mutation")
	}

	// History bumps on overflowed edges write through like demand writes.
	g.EnableHistory()
	g.AddSegDemand(1, geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 0}, 5) // cap 1 on layer 1
	g.WarmCostCache()
	hBefore := g.WireCost(1, 0, 0)
	g.BumpOverflowHistory(1.0)
	if got := g.WireCost(1, 0, 0); got <= hBefore {
		t.Fatalf("WireCost %v not increased by history bump (was %v)", got, hBefore)
	}

	g.WarmCostCache()
	assertCacheMatchesDirect(t, g)

	g.InvalidateCostCache()
	if g.CostCacheBuilt() {
		t.Fatal("cache still built after InvalidateCostCache")
	}
	if got, want := g.WireCost(1, 3, 4), g.wireCostAt(1, g.WireIndex(1, 3, 4)); got != want {
		t.Fatalf("unbuilt WireCost %v != direct %v", got, want)
	}
}

// TestSegCostPrefixMatchesWalk: the prefix-sum fast path agrees with the
// per-edge left fold to float rounding on random segments and via stacks.
func TestSegCostPrefixMatchesWalk(t *testing.T) {
	g := NewFromDesign(design.MustGenerate("18test5m", 0.003))
	congest(g, 3, 500)
	g.WarmCostCache()
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		l := 1 + rng.Intn(g.L)
		var a, b geom.Point
		if g.Dir(l) == Horizontal {
			y := rng.Intn(g.H)
			x0 := rng.Intn(g.W - 1)
			x1 := x0 + 1 + rng.Intn(g.W-1-x0)
			a, b = geom.Point{X: x0, Y: y}, geom.Point{X: x1, Y: y}
		} else {
			x := rng.Intn(g.W)
			y0 := rng.Intn(g.H - 1)
			y1 := y0 + 1 + rng.Intn(g.H-1-y0)
			a, b = geom.Point{X: x, Y: y0}, geom.Point{X: x, Y: y1}
		}
		var walk float64
		if g.Dir(l) == Horizontal {
			for x := a.X; x < b.X; x++ {
				walk += g.WireCost(l, x, a.Y)
			}
		} else {
			for y := a.Y; y < b.Y; y++ {
				walk += g.WireCost(l, a.X, y)
			}
		}
		if got := g.SegCost(l, a, b); math.Abs(got-walk) > 1e-9 {
			t.Fatalf("SegCost(%d,%v,%v) = %v, walk = %v", l, a, b, got, walk)
		}

		x, y := rng.Intn(g.W), rng.Intn(g.H)
		l1 := 1 + rng.Intn(g.L)
		l2 := 1 + rng.Intn(g.L)
		var stack float64
		for k := geom.Min(l1, l2); k < geom.Max(l1, l2); k++ {
			stack += g.ViaEdgeCost(x, y, k)
		}
		if got := g.ViaStackCost(x, y, l1, l2); math.Abs(got-stack) > 1e-9 {
			t.Fatalf("ViaStackCost(%d,%d,%d,%d) = %v, walk = %v", x, y, l1, l2, got, stack)
		}
	}
}

// TestSegCostsAllLayers: the bulk query matches the per-layer dispatch, with
// +Inf on direction-fighting layers and zeros for the empty run.
func TestSegCostsAllLayers(t *testing.T) {
	g := NewFromDesign(testDesign(6))
	congest(g, 5, 150)
	for _, warm := range []bool{false, true} {
		if warm {
			g.WarmCostCache()
		}
		dst := make([]float64, g.L)
		a, b := geom.Point{X: 1, Y: 3}, geom.Point{X: 8, Y: 3} // horizontal run
		g.SegCostsAllLayers(a, b, dst)
		for l := 1; l <= g.L; l++ {
			if g.Dir(l) != Horizontal {
				if !math.IsInf(dst[l-1], 1) {
					t.Fatalf("warm=%v layer %d: want +Inf, got %v", warm, l, dst[l-1])
				}
				continue
			}
			if want := g.SegCost(l, a, b); dst[l-1] != want {
				t.Fatalf("warm=%v layer %d: got %v, want %v", warm, l, dst[l-1], want)
			}
		}
		g.SegCostsAllLayers(a, a, dst)
		for l := 1; l <= g.L; l++ {
			if dst[l-1] != 0 {
				t.Fatalf("warm=%v empty run layer %d: got %v", warm, l, dst[l-1])
			}
		}
	}
}

// TestCostCacheConcurrentWindows exercises the write-through protocol under
// the disjoint-window discipline: workers mutate demand and read costs only
// inside their own column band, so the plain edge-value writes never
// conflict, while H-layer rows span every band and force the shared line
// dirty flags through their atomic path (the -race step watches this).
func TestCostCacheConcurrentWindows(t *testing.T) {
	g := NewFromDesign(design.MustGenerate("18test5m", 0.003))
	congest(g, 6, 200)
	g.WarmCostCache()

	workers := 8
	band := g.W / workers
	if band < 2 {
		t.Skipf("grid too narrow for %d bands", workers)
	}
	par.For(workers, workers, func(_, w int) {
		rng := rand.New(rand.NewSource(int64(w)))
		lox := w * band
		for rep := 0; rep < 200; rep++ {
			l := 1 + rng.Intn(g.L)
			x, y := lox+rng.Intn(band-1), rng.Intn(g.H-1)
			if g.HasWireEdge(l, x, y) {
				if g.Dir(l) == Horizontal {
					g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x + 1, Y: y}, 1)
				} else {
					g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x, Y: y + 1}, 1)
				}
				_ = g.WireCost(l, x, y)
			}
			g.AddViaStackDemand(lox+rng.Intn(band), rng.Intn(g.H), 1, g.L, 1)
			_ = g.ViaStackCost(lox+rng.Intn(band), rng.Intn(g.H), 1, g.L)
		}
	})

	g.WarmCostCache()
	assertCacheMatchesDirect(t, g)
}

// TestCostCacheCounters: the flight-recorder handles observe hits, misses,
// write-throughs (the invalidations counter) and warmed lines; detaching resets to the nil-safe zero cost.
func TestCostCacheCounters(t *testing.T) {
	g := NewFromDesign(testDesign(5))
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	g.SetObserver(o)
	m := o.M()

	g.WireCost(1, 1, 1) // unbuilt: a miss
	if m.Counter(obs.MCostMisses).Value() == 0 {
		t.Fatal("unbuilt WireCost did not count a miss")
	}
	g.WarmCostCache()
	lines := g.W * g.H // one prefix run per cell, plus one per routing line
	for l := 1; l <= g.L; l++ {
		lines += g.lineCount(l)
	}
	if got := m.Counter(obs.MCostWarms).Value(); got != int64(lines) {
		t.Fatalf("first warm counted %d lines and cells, want %d", got, lines)
	}
	g.WireCost(1, 1, 1)
	if m.Counter(obs.MCostHits).Value() == 0 {
		t.Fatal("warm WireCost did not count a hit")
	}
	g.AddSegDemand(1, geom.Point{X: 1, Y: 1}, geom.Point{X: 2, Y: 1}, 1)
	if m.Counter(obs.MCostInvalidations).Value() == 0 {
		t.Fatal("mutation did not count a write-through")
	}

	// A later warm re-sums exactly the dirty line and cells: two stacks in
	// one row and one in another, the row summaries cleared with them.
	g.AddViaStackDemand(3, 2, 1, 4, 1)
	g.AddViaStackDemand(7, 2, 2, 3, 1)
	g.AddViaStackDemand(5, 6, 1, 2, 1)
	before := m.Counter(obs.MCostWarms).Value()
	g.WarmCostCache()
	if got := m.Counter(obs.MCostWarms).Value() - before; got != 1+3 {
		t.Fatalf("warm after one line and three cells changed counted %d, want 4", got)
	}
	for y := range g.cc.viaRowDirty {
		if g.cc.viaRowDirty[y].Load() != 0 {
			t.Fatalf("row %d still flagged after the warm", y)
		}
	}
	g.WarmCostCache()
	if got := m.Counter(obs.MCostWarms).Value() - before; got != 4 {
		t.Fatalf("a warm with nothing dirty counted %d more", got-4)
	}
}

// TestViaPrefix: a clean cell of a built full-window field hands out its
// prefix run, whose differences are ViaStackCost; a cold, dirty or
// windowed cell hands out nil.
func TestViaPrefix(t *testing.T) {
	g := NewFromDesign(testDesign(5))
	g.AddViaStackDemand(4, 3, 1, 5, 2)
	if g.ViaPrefix(4, 3) != nil {
		t.Fatal("cold cache handed out a prefix run")
	}
	g.WarmCostCache()
	p := g.ViaPrefix(4, 3)
	if len(p) != g.L {
		t.Fatalf("prefix run of %d entries, want %d", len(p), g.L)
	}
	for a := 1; a <= g.L; a++ {
		for b := a + 1; b <= g.L; b++ {
			if got, want := p[b-1]-p[a-1], g.ViaStackCost(4, 3, a, b); got != want {
				t.Fatalf("stack %d-%d: prefix %v, ViaStackCost %v", a, b, got, want)
			}
		}
	}
	g.AddViaStackDemand(4, 3, 2, 3, 1)
	if g.ViaPrefix(4, 3) != nil || g.ViaPrefix(5, 3) == nil {
		t.Fatal("only the mutated cell should lose its prefix run")
	}
	v := g.WindowView(geom.Rect{Lo: geom.Point{X: 1, Y: 1}, Hi: geom.Point{X: 6, Y: 5}})
	v.WarmCostCache()
	if v.ViaPrefix(2, 2) != nil {
		t.Fatal("a windowed cache has no prefix runs to hand out")
	}
}

// mutateRandomly applies n random demand and history mutations through g,
// with no warm in between. Demand only grows, so no step underflows.
func mutateRandomly(g *Graph, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		switch l := 1 + rng.Intn(g.L); rng.Intn(8) {
		case 0:
			g.BumpOverflowHistory(0.5 + rng.Float64())
		case 1, 2:
			g.AddViaStackDemand(rng.Intn(g.W), rng.Intn(g.H), 1+rng.Intn(g.L), 1+rng.Intn(g.L), 1+rng.Intn(6))
		default:
			a := geom.Point{X: rng.Intn(g.W), Y: rng.Intn(g.H)}
			b := geom.Point{X: rng.Intn(g.W), Y: a.Y}
			if g.Dir(l) == Vertical {
				b = geom.Point{X: a.X, Y: rng.Intn(g.H)}
			}
			g.AddSegDemand(l, a, b, 1+rng.Intn(4))
		}
	}
}

// TestCostCacheWriteThrough: after any sequence of demand and history
// mutations with no warm in between, a built cache — full or windowed —
// answers every per-edge query bit-identically to the direct formula, and
// after a warm the segment and stack queries equal those of a cache built
// from scratch at the same state.
func TestCostCacheWriteThrough(t *testing.T) {
	for _, windowed := range []bool{false, true} {
		base := NewFromDesign(testDesign(6))
		base.EnableHistory()
		g := base
		if windowed {
			g = base.WindowView(geom.Rect{Lo: geom.Point{X: 2, Y: 1}, Hi: geom.Point{X: base.W - 3, Y: base.H - 2}})
			if g.cc.full {
				t.Fatal("partial window marked full")
			}
		}
		rng := rand.New(rand.NewSource(21))
		mutateRandomly(g, rng, 50)
		g.WarmCostCache()
		for round := 0; round < 20; round++ {
			mutateRandomly(g, rng, 30)
			m := obs.NewRegistry()
			g.SetObserver(&obs.Observer{Metrics: m})
			inWindow := 0
			for l := 1; l <= g.L; l++ {
				for y := 0; y < g.H; y++ {
					for x := 0; x < g.W; x++ {
						if g.HasWireEdge(l, x, y) {
							if got, want := g.WireCost(l, x, y), g.wireCostAt(l, g.WireIndex(l, x, y)); got != want {
								t.Fatalf("windowed=%v round %d: WireCost(%d,%d,%d) = %v, direct %v", windowed, round, l, x, y, got, want)
							}
							if _, ok := g.ccWireLocal(l, x, y); ok {
								inWindow++
							}
						}
						if l < g.L {
							if got, want := g.ViaEdgeCost(x, y, l), g.viaCostAt(l, y*g.W+x); got != want {
								t.Fatalf("windowed=%v round %d: ViaEdgeCost(%d,%d,%d) = %v, direct %v", windowed, round, x, y, l, got, want)
							}
							if _, ok := g.ccViaLocal(x, y); ok {
								inWindow++
							}
						}
					}
				}
			}
			// Every in-window read above was an array load, not a formula
			// evaluation behind a miss.
			if hits := m.Counter(obs.MCostHits).Value(); hits != int64(inWindow) {
				t.Fatalf("windowed=%v round %d: %d hits for %d in-window edges", windowed, round, hits, inWindow)
			}
			g.SetObserver(nil)

			g.WarmCostCache()
			fresh := base.WindowView(g.CostCacheWindow())
			fresh.WarmCostCache()
			for trial := 0; trial < 200; trial++ {
				l := 1 + rng.Intn(g.L)
				a := geom.Point{X: rng.Intn(g.W), Y: rng.Intn(g.H)}
				b := geom.Point{X: rng.Intn(g.W), Y: a.Y}
				if g.Dir(l) == Vertical {
					b = geom.Point{X: a.X, Y: rng.Intn(g.H)}
				}
				if got, want := g.SegCost(l, a, b), fresh.SegCost(l, a, b); got != want {
					t.Fatalf("windowed=%v round %d: SegCost(%d,%v,%v) = %v, fresh build %v", windowed, round, l, a, b, got, want)
				}
				l2 := 1 + rng.Intn(g.L)
				if got, want := g.ViaStackCost(a.X, a.Y, l, l2), fresh.ViaStackCost(a.X, a.Y, l, l2); got != want {
					t.Fatalf("windowed=%v round %d: ViaStackCost(%v,%d,%d) = %v, fresh build %v", windowed, round, a, l, l2, got, want)
				}
			}
		}
	}
}
