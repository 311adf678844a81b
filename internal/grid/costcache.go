package grid

// Write-through cost-field cache. GPU global routers get their throughput
// by turning per-edge cost evaluation into array loads over precomputed cost
// maps (GAP-LA builds per-layer maps with prefix sums for its
// layer-assignment DP); this file brings the same structure to the two hot
// paths the profile names: WireCost/ViaEdgeCost (a logistic — an exp — per
// maze relaxation) and SegCost/ViaStackCost (an O(length) walk per pattern
// candidate).
//
// Layout. Per layer l the cache holds one float64 per wire edge (the value
// WireCost would compute) and, per routing line (a row of a horizontal
// layer, a column of a vertical one), an exclusive prefix-sum array of
// those values, so SegCost collapses to two reads. Vias mirror this per
// G-cell column: one value per boundary plus a per-cell prefix over the
// L-1 boundaries, collapsing ViaStackCost.
//
// Write-through protocol. A demand or history mutation recomputes the
// mutated edge's cached value on the spot (plain write — edge mutation is
// already owner-exclusive under the disjoint-window discipline, and the
// value is written by whoever writes the demand beside it) and sets the
// edge's line/cell dirty flag (atomic — lines cross window boundaries, so
// concurrent rip-up workers in disjoint windows may share one). Edge values
// are therefore never stale. Readers never write the cache: a dirty line
// only means its prefix sums lag, and a segment query over it walks the
// per-edge values instead. Prefix sums are re-summed in WarmCostCache, which
// callers invoke only at single-threaded coordinator points (between
// pattern batches, at the top of a rip-up iteration); the first warm
// builds the whole field.
//
// Determinism. A cached edge value is bit-identical to the direct formula
// (it is produced by the same code from the same demand, capacity and
// history). The prefix-sum segment read may differ from the left-fold walk
// by float rounding; every consumer of SegCost compares with tolerances, and
// the maze router uses only per-edge costs, so routed geometry is
// bit-identical for any warm/cold state.

import (
	"math"
	"sync/atomic"

	"fastgr/internal/geom"
	"fastgr/internal/obs"
)

// costCache is the materialized cost field of one Graph. Value/prefix
// arrays are nil until the first WarmCostCache, so an unwarmed graph
// behaves exactly like the pre-cache implementation.
type costCache struct {
	built bool

	// win bounds the cached region in G-cells; full marks a window covering
	// the whole grid. Prefix-sum arrays exist only for the full window: a
	// partial window would accumulate its sums from a different origin than
	// the full-grid fold, and that float-rounding difference could flip a
	// pattern-DP tie between window layouts. Windowed caches therefore serve
	// per-edge values only — each bit-identical to the direct formula — so a
	// shard view's cache state can change speed but never results.
	win  geom.Rect
	full bool

	// Wire side. For the full window, indexed like wireDem: [l-1][edge].
	// For a partial window, [l-1] holds the window's own row-major edge
	// block (see ccWireSpan/ccWireLocal).
	wireVal [][]float64
	// Full window only: wirePfx[l-1] holds lineCount(l) runs of
	// lineLen(l)+1 exclusive prefix sums, wireDirty[l-1] one flag per line
	// whose prefix run lags its values.
	wirePfx   [][]float64
	wireDirty [][]atomic.Uint32

	// Via side: [b][cell] values and, full window only, one L-entry prefix
	// run per cell (viaPfx[cell*L+k] sums boundaries 0..k-1) with one
	// dirty flag per cell, summarized by one flag per grid row that is set
	// whenever a cell of the row is.
	viaVal      [][]float64
	viaPfx      []float64
	viaDirty    []atomic.Uint32
	viaRowDirty []atomic.Uint32

	// Flight-recorder handles, resolved once by SetObserver; all nil in
	// disabled mode, where each event costs one nil check.
	hits   *obs.Counter
	misses *obs.Counter
	invals *obs.Counter
	warms  *obs.Counter
}

// SetObserver attaches (or, with nil, detaches) the flight recorder to the
// cost cache: fast-path hit/miss counters, per-edge write-through counts and
// the number of lines/cells (re)summed by WarmCostCache.
func (g *Graph) SetObserver(o *obs.Observer) {
	g.cc.hits = o.M().Counter(obs.MCostHits)
	g.cc.misses = o.M().Counter(obs.MCostMisses)
	g.cc.invals = o.M().Counter(obs.MCostInvalidations)
	g.cc.warms = o.M().Counter(obs.MCostWarms)
}

// CostCacheBuilt reports whether the cost field has been materialized.
func (g *Graph) CostCacheBuilt() bool { return g.cc.built }

// CostField exposes a built full-window cost field for a hot loop that
// cannot afford a call per edge: wire[l-1][WireIndex(l, x, y)] is
// WireCost(l, x, y) and via[l-1][y*W+x] is ViaEdgeCost(x, y, l), always
// fresh (write-through). Both are nil for a windowed or unbuilt cache, whose
// callers keep using WireCost/ViaEdgeCost. The slices are read-only, valid
// until the next InvalidateCostCache, and readable wherever the accessors
// are: an edge's value is only ever written by the edge's owner. The reader
// adds what it read to hits, once, so the counter keeps counting edge reads.
func (g *Graph) CostField() (wire, via [][]float64, hits *obs.Counter) {
	if cc := &g.cc; cc.built && cc.full {
		return cc.wireVal, cc.viaVal, cc.hits
	}
	return nil, nil, nil
}

// ViaPrefix returns the via prefix run of G-cell (x, y) — p[k] sums the
// via edges above layers 1..k, so ViaStackCost(x, y, a, b) is
// p[b-1] - p[a-1] for a < b — when a built full-window field holds it
// clean; nil for a windowed, cold or dirty cell, where callers use
// ViaStackCost. A reader that keeps the run adds its reads to hits itself
// (see CostField). The run is read-only and valid until the next warm.
func (g *Graph) ViaPrefix(x, y int) []float64 {
	cell := y*g.W + x
	if cc := &g.cc; cc.built && cc.full && cc.viaDirty[cell].Load() == 0 {
		return cc.viaPfx[cell*g.L : (cell+1)*g.L]
	}
	return nil
}

// lineLen is the edge count of one routing line of layer l; lineCount is
// the number of such lines.
func (g *Graph) lineLen(l int) int {
	if g.Dir(l) == Horizontal {
		return g.W - 1
	}
	return g.H - 1
}

func (g *Graph) lineCount(l int) int {
	if g.Dir(l) == Horizontal {
		return g.H
	}
	return g.W
}

// fullRect is the window covering every G-cell of the grid.
func (g *Graph) fullRect() geom.Rect {
	return geom.Rect{Hi: geom.Point{X: g.W - 1, Y: g.H - 1}}
}

// CostCacheWindow returns the region the cost cache covers.
func (g *Graph) CostCacheWindow() geom.Rect { return g.cc.win }

// ccWireSpan returns the cache-window geometry of layer l's wire edges:
// the number of cached edges per routing line and the number of window
// lines. An edge is cached when its starting cell lies in the window, so a
// window flush against the grid's far side has one fewer edge per line.
func (g *Graph) ccWireSpan(l int) (lineLen, lines int) {
	win := g.cc.win
	if g.Dir(l) == Horizontal {
		return geom.Min(win.Hi.X, g.W-2) - win.Lo.X + 1, win.Hi.Y - win.Lo.Y + 1
	}
	return geom.Min(win.Hi.Y, g.H-2) - win.Lo.Y + 1, win.Hi.X - win.Lo.X + 1
}

// ccWireLocal maps wire edge (x, y) of layer l to its window-local slot; ok
// is false when the edge lies outside the cache window. For the full window
// the local slot equals the global WireIndex.
func (g *Graph) ccWireLocal(l, x, y int) (idx int, ok bool) {
	win := g.cc.win
	lineLen, lines := g.ccWireSpan(l)
	off, line := x-win.Lo.X, y-win.Lo.Y
	if g.Dir(l) == Vertical {
		off, line = line, off
	}
	if off < 0 || off >= lineLen || line < 0 || line >= lines {
		return 0, false
	}
	return line*lineLen + off, true
}

// ccViaLocal maps G-cell (x, y) to its window-local via slot; ok is false
// outside the window. For the full window the slot equals y*W+x.
func (g *Graph) ccViaLocal(x, y int) (int, bool) {
	win := g.cc.win
	lx, ly := x-win.Lo.X, y-win.Lo.Y
	if lx < 0 || ly < 0 || x > win.Hi.X || y > win.Hi.Y {
		return 0, false
	}
	return ly*win.Width() + lx, true
}

// wireCostAt is the direct cost formula for wire edge i of layer l — the
// single source of truth the uncached path, the first build and every
// write-through evaluate.
func (g *Graph) wireCostAt(l, i int) float64 {
	cap, dem := g.wireCap[l-1][i], g.wireDem[l-1][i]
	c := g.Params.UnitWire + g.logistic(dem, cap)
	if cap <= 0 {
		c += g.Params.BlockedPenalty
	}
	if g.history != nil {
		c += HistoryWeight * float64(g.history[l-1][i])
	}
	return c
}

// viaCostAt is the direct via-edge formula for cell i across the boundary
// above layer l.
func (g *Graph) viaCostAt(l, i int) float64 {
	cap, dem := g.viaCap[l-1], g.viaDem[l-1][i]
	return g.Params.UnitVia + g.logistic(dem, cap)
}

// noteWireMutation writes the mutated wire edge's new cost through to the
// cache: the caller owns the edge (demand writes already require that), the
// line flag is shared across windows and therefore atomic. i is the global
// edge index; a windowed cache inverts it to window-local coordinates and
// ignores mutations it never covered.
func (g *Graph) noteWireMutation(l, i int) {
	cc := &g.cc
	if !cc.built {
		return
	}
	li := i
	if cc.full {
		cc.wireDirty[l-1][i/g.lineLen(l)].Store(1)
	} else {
		var ok bool
		x, y := g.wireXY(l, i)
		if li, ok = g.ccWireLocal(l, x, y); !ok {
			return
		}
	}
	cc.wireVal[l-1][li] = g.wireCostAt(l, i)
	cc.invals.Add(1)
}

// noteViaMutation writes one via edge's new cost through and flags its
// cell's prefix run. cell is the global y*W+x index; windowed caches
// translate it like noteWireMutation does.
func (g *Graph) noteViaMutation(l, cell int) {
	cc := &g.cc
	if !cc.built {
		return
	}
	ci := cell
	if cc.full {
		cc.viaDirty[cell].Store(1)
		cc.viaRowDirty[cell/g.W].Store(1)
	} else {
		var ok bool
		if ci, ok = g.ccViaLocal(cell%g.W, cell/g.W); !ok {
			return
		}
	}
	cc.viaVal[l-1][ci] = g.viaCostAt(l, cell)
	cc.invals.Add(1)
}

// WarmCostCache brings the cost field up to date. The first call evaluates
// every edge of the cache window; from then on edge values are kept fresh
// by write-through, so a warm only re-sums the prefix runs of dirty lines
// and cells — nothing at all for a windowed cache, which has no prefix
// sums and no dirty flags. Cells are looked at only in rows whose summary
// flag is set, so a warm costs what the mutations since the last one
// touched, not the grid. It must only be called at single-threaded
// coordinator points: it is the one place prefix sums are written, which is
// what lets concurrent readers skip all synchronization on them.
func (g *Graph) WarmCostCache() {
	cc := &g.cc
	warmed := 0
	if !cc.built {
		warmed = g.buildCostCache()
	}
	for l := 1; l <= g.L; l++ {
		ll := g.lineLen(l)
		val, pfx, dirty := cc.wireVal[l-1], cc.wirePfx[l-1], cc.wireDirty[l-1]
		for li := range dirty {
			if dirty[li].Load() == 0 {
				continue
			}
			sum := 0.0
			run := pfx[li*(ll+1) : (li+1)*(ll+1)]
			for k, c := range val[li*ll : (li+1)*ll] {
				sum += c
				run[k+1] = sum
			}
			dirty[li].Store(0)
			warmed++
		}
	}
	for y := range cc.viaRowDirty {
		if cc.viaRowDirty[y].Load() == 0 {
			continue
		}
		for ci := y * g.W; ci < (y+1)*g.W; ci++ {
			if cc.viaDirty[ci].Load() == 0 {
				continue
			}
			sum := 0.0
			for b := 0; b < g.L-1; b++ {
				sum += cc.viaVal[b][ci]
				cc.viaPfx[ci*g.L+b+1] = sum
			}
			cc.viaDirty[ci].Store(0)
			warmed++
		}
		cc.viaRowDirty[y].Store(0)
	}
	cc.warms.Add(int64(warmed))
}

// buildCostCache allocates the field and evaluates every edge of the cache
// window. A full window comes out with every line and cell flagged dirty,
// for WarmCostCache to sum and count; a partial window has no prefix runs or
// flags, is complete as built, and its line and cell count is returned.
func (g *Graph) buildCostCache() (complete int) {
	cc := &g.cc
	cc.wireVal = make([][]float64, g.L)
	cc.wirePfx = make([][]float64, g.L)
	cc.wireDirty = make([][]atomic.Uint32, g.L)
	for l := 1; l <= g.L; l++ {
		ll, lines := g.ccWireSpan(l)
		ll = geom.Max(ll, 0)
		val := make([]float64, lines*ll)
		for li := 0; li < lines; li++ {
			for k := 0; k < ll; k++ {
				x, y := cc.win.Lo.X+k, cc.win.Lo.Y+li
				if g.Dir(l) == Vertical {
					x, y = cc.win.Lo.X+li, cc.win.Lo.Y+k
				}
				val[li*ll+k] = g.wireCostAt(l, g.WireIndex(l, x, y))
			}
		}
		cc.wireVal[l-1] = val
		if cc.full {
			cc.wirePfx[l-1] = make([]float64, lines*(ll+1))
			cc.wireDirty[l-1] = make([]atomic.Uint32, lines)
			for li := range cc.wireDirty[l-1] {
				cc.wireDirty[l-1][li].Store(1)
			}
		}
		complete += lines
	}
	cells, cw := cc.win.Area(), cc.win.Width()
	cc.viaVal = make([][]float64, g.L-1)
	for b := range cc.viaVal {
		cc.viaVal[b] = make([]float64, cells)
		for ci := range cc.viaVal[b] {
			cc.viaVal[b][ci] = g.viaCostAt(b+1, (cc.win.Lo.Y+ci/cw)*g.W+cc.win.Lo.X+ci%cw)
		}
	}
	cc.built = true
	if !cc.full {
		return complete + cells
	}
	cc.viaPfx = make([]float64, cells*g.L)
	cc.viaDirty = make([]atomic.Uint32, cells)
	for i := range cc.viaDirty {
		cc.viaDirty[i].Store(1)
	}
	cc.viaRowDirty = make([]atomic.Uint32, g.H)
	for y := range cc.viaRowDirty {
		cc.viaRowDirty[y].Store(1)
	}
	return 0
}

// InvalidateCostCache drops the materialized field entirely; the next
// WarmCostCache rebuilds from scratch. Like Warm, coordinator-only. The
// cache window survives the flush.
func (g *Graph) InvalidateCostCache() {
	g.cc = costCache{
		win:    g.cc.win,
		full:   g.cc.full,
		hits:   g.cc.hits,
		misses: g.cc.misses,
		invals: g.cc.invals,
		warms:  g.cc.warms,
	}
}

// SegCostsAllLayers fills dst (len >= L) with SegCost(l, a, b) for every
// layer: +Inf where the run fights the layer's preferred direction, zero
// everywhere when a == b. One call replaces the per-layer dispatch in the
// pattern DP's candidate evaluation; with a warm cache each feasible layer
// costs two prefix reads.
func (g *Graph) SegCostsAllLayers(a, b geom.Point, dst []float64) {
	inf := math.Inf(1)
	if a == b {
		for l := 0; l < g.L; l++ {
			dst[l] = 0
		}
		return
	}
	var o Dir
	if a.Y == b.Y {
		o = Horizontal
	} else {
		o = Vertical
	}
	for l := 1; l <= g.L; l++ {
		if g.Dir(l) != o {
			dst[l-1] = inf
			continue
		}
		dst[l-1] = g.SegCost(l, a, b)
	}
}
