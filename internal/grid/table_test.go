package grid

import (
	"reflect"
	"testing"
	"unsafe"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/obs"
)

// tableDesign has four wire capacities — 1 on the pin layer, 10 above it,
// 5 and 0 under two blockages — so the table has a blocked row.
func tableDesign() *design.Design {
	d := testDesign(5)
	d.Blockages = []design.Blockage{
		{Layer: 3, Region: geom.NewRect(geom.Point{X: 2, Y: 2}, geom.Point{X: 5, Y: 4}), Density: 1.0},
		{Layer: 2, Region: geom.NewRect(geom.Point{X: 6, Y: 1}, geom.Point{X: 8, Y: 6}), Density: 0.5},
	}
	return d
}

// TestBaseCostTableMatchesFormula: for every row of the table — every
// distinct wire capacity, the blocked one included, and every via boundary
// — and every demand from 0 to 8 past the table, with history on, a read
// through the full grid and through a window view is bit-equal to the
// direct formula: the cached wire value, the uncached read, the cost
// field's via read and ViaEdgeCost.
func TestBaseCostTableMatchesFormula(t *testing.T) {
	win := geom.Rect{Lo: geom.Point{X: 1, Y: 1}, Hi: geom.Point{X: 10, Y: 8}}
	for _, windowed := range []bool{false, true} {
		base := NewFromDesign(tableDesign())
		base.EnableHistory()
		g := base
		if windowed {
			g = base.WindowView(win)
		}
		g.WarmCostCache()
		if got := []uint16(g.tab.caps); !reflect.DeepEqual(got, []uint16{0, 1, 5, 10}) {
			t.Fatalf("windowed=%v: table rows for capacities %v, want [0 1 5 10]", windowed, got)
		}

		// One wire edge per table row, starting inside the window.
		type edge struct{ l, x, y int }
		rows := make([]edge, len(g.tab.caps))
		found := make([]bool, len(rows))
		for l := 1; l <= g.L; l++ {
			for y := win.Lo.Y; y <= win.Hi.Y; y++ {
				for x := win.Lo.X; x <= win.Hi.X; x++ {
					if !g.HasWireEdge(l, x, y) {
						continue
					}
					for r, c := range g.tab.caps {
						if !found[r] && g.WireCap(l, x, y) == int(c) {
							rows[r], found[r] = edge{l, x, y}, true
						}
					}
				}
			}
		}
		for r, ok := range found {
			if !ok {
				t.Fatalf("windowed=%v: no edge of capacity %d in the window", windowed, g.tab.caps[r])
			}
		}

		cell := geom.Point{X: 4, Y: 5}
		for dem := 0; dem < tableDemands+8; dem++ {
			if dem > 0 {
				for _, e := range rows {
					a, b := geom.Point{X: e.x, Y: e.y}, geom.Point{X: e.x + 1, Y: e.y}
					if g.Dir(e.l) == Vertical {
						b = geom.Point{X: e.x, Y: e.y + 1}
					}
					g.AddSegDemand(e.l, a, b, 1)
				}
				g.AddViaStackDemand(cell.X, cell.Y, 1, g.L, 1)
				g.BumpOverflowHistory(0.25)
			}
			f := g.CostField()
			for r, e := range rows {
				i := g.WireIndex(e.l, e.x, e.y)
				if g.WireDem(e.l, e.x, e.y) != dem {
					t.Fatalf("edge of row %d at demand %d, want %d", r, g.WireDem(e.l, e.x, e.y), dem)
				}
				want := g.wireCostAt(e.l, i)
				if got := f.Wire[e.l-1][f.WireSlot(e.l, e.x, e.y)]; got != want {
					t.Fatalf("windowed=%v cap %d demand %d: cached %v != formula %v", windowed, g.tab.caps[r], dem, got, want)
				}
				if got := g.wireValue(e.l, i); got != want {
					t.Fatalf("windowed=%v cap %d demand %d: table read %v != formula %v", windowed, g.tab.caps[r], dem, got, want)
				}
				if dem < tableDemands {
					if got, want := g.tab.wire[r][dem], g.wireBase(int32(dem), g.tab.caps[r]); got != want {
						t.Fatalf("cap %d demand %d: entry %v != formula %v", g.tab.caps[r], dem, got, want)
					}
				}
			}
			for l := 1; l < g.L; l++ {
				want := g.viaCostAt(l, cell.Y*g.W+cell.X)
				if got := f.ViaCost(cell.X, cell.Y, l); got != want {
					t.Fatalf("windowed=%v boundary %d demand %d: field %v != formula %v", windowed, l, dem, got, want)
				}
				if got := g.ViaEdgeCost(cell.X, cell.Y, l); got != want {
					t.Fatalf("windowed=%v boundary %d demand %d: ViaEdgeCost %v != formula %v", windowed, l, dem, got, want)
				}
				if c, ok := f.ViaEntry(cell.X, cell.Y, l); ok != (dem < tableDemands) || ok && c != want {
					t.Fatalf("windowed=%v boundary %d demand %d: entry %v, %v", windowed, l, dem, c, ok)
				}
			}
		}
		if g.WireHistory(rows[0].l, rows[0].x, rows[0].y) == 0 {
			t.Fatalf("windowed=%v: the blocked edge collected no history", windowed)
		}
	}
}

// residentBytes sums the backing arrays reachable from v: every slice's
// capacity, its elements' own arrays, and the base-cost table behind a
// pointer to it. Other pointers — the graph, the recorder's counters —
// lead to memory the cache does not own. seen keeps a shared array from
// counting twice.
func residentBytes(v reflect.Value, seen map[uintptr]bool) int {
	switch v.Kind() {
	case reflect.Slice:
		if v.Cap() == 0 || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		n := v.Cap() * int(v.Type().Elem().Size())
		if k := v.Type().Elem().Kind(); k == reflect.Slice || k == reflect.Pointer {
			for i := 0; i < v.Len(); i++ {
				n += residentBytes(v.Index(i), seen)
			}
		}
		return n
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += residentBytes(v.Field(i), seen)
		}
		return n
	case reflect.Pointer:
		if v.IsNil() || v.Type() != reflect.TypeOf((*costTable)(nil)) || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		return int(v.Type().Elem().Size()) + residentBytes(v.Elem(), seen)
	}
	return 0
}

// TestCostCacheFootprint: a warmed cache holds exactly its wire values,
// its wire and via prefix runs, its dirty flags and the shared base-cost
// table, on the full grid and on a window view. A per-cell via value
// array, or anything else per edge or cell, breaks the closed form.
func TestCostCacheFootprint(t *testing.T) {
	base := NewFromDesign(design.MustGenerate("18test5m", 0.003))
	congest(base, 14, 500)
	const f64, flag, hdr = 8, 4, int(unsafe.Sizeof([]float64(nil)))
	for _, win := range []geom.Rect{
		base.fullRect(),
		{Lo: geom.Point{X: 3, Y: 2}, Hi: geom.Point{X: base.W - 1, Y: base.H / 2}},
	} {
		g := base.WindowView(win)
		g.WarmCostCache()

		// Wire side: a value per edge starting in the window, a prefix
		// run one longer per line, a flag per line; three outer arrays of
		// L rows and the two stride arrays.
		want := 3*g.L*hdr + 2*g.L*int(unsafe.Sizeof(0))
		for l := 1; l <= g.L; l++ {
			edges, lines := 0, win.Height()
			if g.Dir(l) == Vertical {
				lines = win.Width()
			}
			for y := win.Lo.Y; y <= win.Hi.Y; y++ {
				for x := win.Lo.X; x <= win.Hi.X; x++ {
					if g.HasWireEdge(l, x, y) {
						edges++
					}
				}
			}
			want += edges*f64 + (edges+lines)*f64 + lines*flag
		}
		// Via side: an L-entry prefix run and a flag per cell, a flag per
		// row. No values.
		want += win.Area()*g.L*f64 + win.Area()*flag + win.Height()*flag
		// The table, shared with every view: N columns per row, the row
		// headers and the capacity index.
		nc := len(g.tab.caps)
		table := int(unsafe.Sizeof(costTable{})) + (nc+g.L-1)*(tableDemands*f64+hdr) + nc*2
		want += table

		seen := map[uintptr]bool{}
		got := residentBytes(reflect.ValueOf(&g.cc).Elem(), seen) + residentBytes(reflect.ValueOf(g.tab), seen)
		if got != want {
			t.Fatalf("window %v: cache holds %d B, closed form %d B", win, got, want)
		}
		if table > 8<<10 {
			t.Fatalf("table of %d rows holds %d B, want a few KiB", nc+g.L-1, table)
		}

		// The counters keep their meaning: one invalidation per mutated
		// edge, one warm per re-summed line or cell.
		m := obs.NewRegistry()
		g.SetObserver(&obs.Observer{Metrics: m})
		p := geom.Point{X: win.Lo.X + 1, Y: win.Lo.Y + 1}
		g.AddViaStackDemand(p.X, p.Y, 1, g.L, 1)
		if got := m.Counter(obs.MCostInvalidations).Value(); got != int64(g.L-1) {
			t.Fatalf("a %d-edge via stack counted %d invalidations", g.L-1, got)
		}
		g.WarmCostCache()
		if got := m.Counter(obs.MCostWarms).Value(); got != 1 {
			t.Fatalf("one dirty cell re-summed as %d", got)
		}
		g.SetObserver(nil)
	}
}
