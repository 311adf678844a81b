package grid

// Write-through cost-field cache. GPU global routers get their throughput
// by turning per-edge cost evaluation into array loads over precomputed cost
// maps (GAP-LA builds per-layer maps with prefix sums for its
// layer-assignment DP); this file brings the same structure to the two hot
// paths the profile names: WireCost/ViaEdgeCost (a logistic — an exp — per
// maze relaxation) and SegCost/ViaStackCost (an O(length) walk per pattern
// candidate).
//
// Base-cost table. A wire edge's cost before history, and a via edge's
// whole cost, is a pure function of its (capacity, demand) pair, and a
// design has few distinct capacities: one per layer plus what blockages
// carve out of them, and one via capacity per boundary. So each Graph
// builds one immutable table at construction — a row per distinct wire
// capacity and a row per via boundary, a column per demand 0..N-1 — with
// every entry computed by the direct formula, and window views share it as
// they share the demand arrays. A read of demand N or more evaluates the
// formula. Only the table and the formula's overflow path ever call exp.
//
// Layout. Every cache covers one window of G-cells — the whole grid for a
// graph and for the one-leaf plan's view, a leaf or net region for any
// other WindowView — and lays the same arrays out over it. Per layer l it
// holds one float64 per wire edge starting in the window (the value
// WireCost would compute, filled from the table) and, per window line (a
// row of a horizontal layer, a column of a vertical one), an exclusive
// prefix-sum run of those values starting at the window's origin, so
// SegCost over a run inside the window collapses to two reads. Via edges
// keep no values: a via read is one table load at the edge's demand. Each
// window cell keeps only its prefix run over the L-1 boundaries, which
// collapses ViaStackCost. CostField.WireSlot, with strides fixed at build
// time, places every wire edge; a line's prefix run starts at the slot of
// its first edge plus the line number.
//
// Write-through protocol. A wire demand or history mutation recomputes the
// mutated edge's cached value on the spot from the table (plain write —
// edge mutation is already owner-exclusive under the disjoint-window
// discipline, and the value is written by whoever writes the demand beside
// it) and sets the edge's line dirty flag (atomic — lines cross rip-up
// windows, so concurrent rip-up workers in disjoint windows may share one).
// A via mutation only sets its cell's and row's flags. Edge values are
// therefore never stale. Readers never write the cache: a dirty line or
// cell only means its prefix sums lag, and a segment or stack query over
// it walks the per-edge costs instead. Prefix sums are re-summed in
// WarmCostCache, which callers invoke only at single-threaded points of
// the cache's owner (between pattern batches, at the top of a rip-up
// iteration); the first warm builds the whole field. A mutation outside
// the window leaves the cache alone, and a query leaving it reads the
// table edge by edge.
//
// Determinism. A table entry, and so a cached wire value, is bit-identical
// to the direct formula (it is produced by the same code from the same
// demand and capacity, with history added after it in the formula's
// order). The prefix-sum segment read may differ from the left-fold walk
// by float rounding, and it depends on the window's origin; every consumer
// of SegCost compares with tolerances, and the maze router uses only
// per-edge costs, so its geometry is bit-identical for any cache state. Two
// caches over the same window answer bit-identically, and a via run always
// sums from layer 1, so via prefix runs agree across windows too.

import (
	"math"
	"slices"
	"sync/atomic"

	"fastgr/internal/geom"
	"fastgr/internal/obs"
)

// costCache is the materialized cost field of one Graph over its window
// (field.Win). The arrays are nil until the first WarmCostCache, so an
// unwarmed graph answers every query from the direct formula.
type costCache struct {
	built bool

	// field holds the wire values and the window→slot mapping.
	field CostField

	// wirePfx[l-1] holds one run of n+1 exclusive prefix sums per window
	// line of layer l, n being the line's edge count; wireDirty[l-1] one
	// flag per line whose prefix run lags its values.
	wirePfx   [][]float64
	wireDirty [][]atomic.Uint32

	// Via side: one L-entry prefix run per window cell (viaPfx[s*L+k]
	// sums boundaries 0..k-1 of the cell at slot s) with one dirty flag per
	// cell, summarized by one flag per window row that is set whenever a
	// cell of the row is.
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
	g.cc.field.Hits = g.cc.hits
	g.cc.misses = o.M().Counter(obs.MCostMisses)
	g.cc.invals = o.M().Counter(obs.MCostInvalidations)
	g.cc.warms = o.M().Counter(obs.MCostWarms)
}

// CostField is the edge-cost view of a built cost cache for a hot loop
// that cannot afford a call per edge: Wire[l-1][f.WireSlot(l, x, y)] is
// WireCost(l, x, y) for every wire edge starting in Win, and f.ViaCost(x,
// y, l) is ViaEdgeCost(x, y, l) for every G-cell of Win. Via holds the via
// rows of the graph's base-cost table: Via[l-1][d] is the cost of a via
// edge above layer l at demand d < len(Via[l-1]). The wire values are
// always fresh (write-through) and readable wherever the accessors are: an
// edge's value is only ever written by the edge's owner, as is the demand
// a via read looks up. The arrays are read-only and valid until the next
// InvalidateCostCache. A reader adds what it read to Hits, once, so the
// counter keeps counting edge reads.
type CostField struct {
	Win       geom.Rect
	Wire, Via [][]float64
	Hits      *obs.Counter
	// dx[l-1] and dy[l-1] are the slot steps of one G-cell along x and y
	// on layer l: one along the layer's lines, a line's edge count across
	// them.
	dx, dy []int
	// g is the graph whose demand arrays a via read looks up.
	g *Graph
}

// WireSlot is the slot of wire edge (x, y) of layer l in Wire[l-1].
func (f *CostField) WireSlot(l, x, y int) int {
	return (x-f.Win.Lo.X)*f.dx[l-1] + (y-f.Win.Lo.Y)*f.dy[l-1]
}

// ViaCost is the cost of the via edge at (x, y) above layer l: the table
// entry at the edge's demand, or the formula past the table.
func (f *CostField) ViaCost(x, y, l int) float64 {
	return f.g.viaValue(l, y*f.g.W+x)
}

// ViaEntry is ViaCost's table read, small enough to inline into a hot
// loop: ok is false for a demand past the table, where the caller reads
// ViaCost instead.
func (f *CostField) ViaEntry(x, y, l int) (c float64, ok bool) {
	row, dem := f.Via[l-1], f.g.viaDem[l-1][y*f.g.W+x]
	if uint32(dem) < uint32(len(row)) {
		return row[dem], true
	}
	return 0, false
}

// cellSlot is the window slot of G-cell (x, y): its index in the per-cell
// via arrays.
func (f *CostField) cellSlot(x, y int) int {
	return (y-f.Win.Lo.Y)*(f.Win.Hi.X-f.Win.Lo.X+1) + x - f.Win.Lo.X
}

// CostField returns the built cost field, nil while the cache is cold.
func (g *Graph) CostField() *CostField {
	if !g.cc.built {
		return nil
	}
	return &g.cc.field
}

// wireRun places the run of n wire edges of layer l starting at (x, y) in
// the window: the slot of its first edge and its window line. ok is false
// on a cold cache and unless every edge of the run starts in the window.
// Every layer of one direction has the same window layout, so the answer
// depends on l only through its direction.
func (g *Graph) wireRun(l, x, y, n int) (slot, line int, ok bool) {
	if !g.cc.built {
		return 0, 0, false
	}
	f := &g.cc.field
	along, line, lineEdges, lines := x-f.Win.Lo.X, y-f.Win.Lo.Y, f.dy[l-1], f.Win.Height()
	if g.Dir(l) == Vertical {
		along, line, lineEdges, lines = line, along, f.dx[l-1], f.Win.Width()
	}
	if along < 0 || along+n > lineEdges || line < 0 || line >= lines {
		return 0, 0, false
	}
	return f.WireSlot(l, x, y), line, true
}

// viaCell is the window slot of G-cell (x, y); ok is false on a cold cache
// and outside the window.
func (g *Graph) viaCell(x, y int) (slot int, ok bool) {
	f := &g.cc.field
	return f.cellSlot(x, y), g.cc.built && f.Win.Contains(geom.Point{X: x, Y: y})
}

// ViaPrefix returns the via prefix run of G-cell (x, y) — p[k] sums the
// via edges above layers 1..k, so ViaStackCost(x, y, a, b) is
// p[b-1] - p[a-1] for a < b — when a built field holds the cell clean;
// nil for a cold, dirty or out-of-window cell, where callers use
// ViaStackCost. A reader that keeps the run adds its reads to hits itself
// (see CostField). The run is read-only and valid until the next warm.
func (g *Graph) ViaPrefix(x, y int) []float64 {
	if s, ok := g.viaCell(x, y); ok && g.cc.viaDirty[s].Load() == 0 {
		return g.cc.viaPfx[s*g.L : (s+1)*g.L]
	}
	return nil
}

// WarmedSegCost is the cost of the straight run from a to b on layer l as
// the last WarmCostCache summed it: two reads of the line's prefix run,
// whatever the line's dirty flag. It lags the write-throughs since that
// warm, but prefix runs are written only at warms, so no concurrent
// mutation anywhere on the line can change the answer: a decision taken
// on it is a pure function of the graph at the warm. ok is false on a cold
// cache and for a run leaving the cache window. The caller counts the read
// (see CostField).
func (g *Graph) WarmedSegCost(l int, a, b geom.Point) (cost float64, ok bool) {
	lo, n := g.segRun(l, a, b)
	s, line, ok := g.wireRun(l, lo.X, lo.Y, n)
	if !ok {
		return 0, false
	}
	p := g.cc.wirePfx[l-1][s+line:]
	return p[n] - p[0], true
}

// fullRect is the window covering every G-cell of the grid.
func (g *Graph) fullRect() geom.Rect {
	return geom.Rect{Hi: geom.Point{X: g.W - 1, Y: g.H - 1}}
}

// tableDemands is N, the demand columns of the base-cost table. Capacities
// run to a few tens of tracks, so demand past N is deep in the logistic's
// saturation and rare; a read there evaluates the formula.
const tableDemands = 64

// costTable is a graph's base-cost table: wire[r][d] is the history-free
// cost of a wire edge of capacity caps[r] at demand d, via[b][d] the cost
// of a via edge across boundary b+1 at demand d. Every row is one slice of
// a single backing array. It is immutable after newCostTable.
type costTable struct {
	caps      []uint16 // the distinct wire capacities, ascending
	wire, via [][]float64
}

// newCostTable builds g's table from its final (post-blockage) capacities.
func (g *Graph) newCostTable() *costTable {
	var caps []uint16
	for _, lc := range g.wireCap {
		for i, c := range lc {
			if i > 0 && c == lc[i-1] {
				continue // capacities come in long runs
			}
			if k, found := slices.BinarySearch(caps, c); !found {
				caps = slices.Insert(caps, k, c)
			}
		}
	}
	t := &costTable{caps: slices.Clip(caps), wire: make([][]float64, len(caps)), via: make([][]float64, g.L-1)}
	rows := make([]float64, (len(caps)+g.L-1)*tableDemands)
	next := func() []float64 {
		row := rows[:tableDemands:tableDemands]
		rows = rows[tableDemands:]
		return row
	}
	for r, c := range caps {
		t.wire[r] = next()
		for d := range t.wire[r] {
			t.wire[r][d] = g.wireBase(int32(d), c)
		}
	}
	for b := range t.via {
		t.via[b] = next()
		for d := range t.via[b] {
			t.via[b][d] = g.viaBase(b+1, int32(d))
		}
	}
	return t
}

// wireBase is the history-free wire-edge formula at demand dem and
// capacity cap.
func (g *Graph) wireBase(dem int32, cap uint16) float64 {
	c := g.Params.UnitWire + g.logistic(dem, int32(cap))
	if cap == 0 {
		c += g.Params.BlockedPenalty
	}
	return c
}

// viaBase is the via-edge formula at demand dem across the boundary above
// layer l.
func (g *Graph) viaBase(l int, dem int32) float64 {
	return g.Params.UnitVia + g.logistic(dem, g.viaCap[l-1])
}

// wireCostAt is the direct cost formula for wire edge i of layer l: the
// base formula, then history.
func (g *Graph) wireCostAt(l, i int) float64 {
	c := g.wireBase(g.wireDem[l-1][i], g.wireCap[l-1][i])
	if g.history != nil {
		c += HistoryWeight * float64(g.history[l-1][i])
	}
	return c
}

// viaCostAt is the direct via-edge formula for cell i across the boundary
// above layer l.
func (g *Graph) viaCostAt(l, i int) float64 {
	return g.viaBase(l, g.viaDem[l-1][i])
}

// wireValue is wireCostAt read through the table: the entry for the edge's
// capacity and demand, then history in the formula's order, so the same
// bits without an exp. Demand past the table evaluates the formula.
func (g *Graph) wireValue(l, i int) float64 {
	cap, dem := g.wireCap[l-1][i], g.wireDem[l-1][i]
	r, _ := slices.BinarySearch(g.tab.caps, cap)
	row := g.tab.wire[r]
	if uint32(dem) >= uint32(len(row)) {
		return g.wireCostAt(l, i)
	}
	c := row[dem]
	if g.history != nil {
		c += HistoryWeight * float64(g.history[l-1][i])
	}
	return c
}

// viaValue is viaCostAt read through the table.
func (g *Graph) viaValue(l, cell int) float64 {
	row, dem := g.tab.via[l-1], g.viaDem[l-1][cell]
	if uint32(dem) >= uint32(len(row)) {
		return g.viaCostAt(l, cell)
	}
	return row[dem]
}

// noteWireMutation writes the mutated wire edge's new cost through to the
// cache and flags its line: the caller owns the edge (demand writes already
// require that), the line flag is shared across rip-up windows and
// therefore atomic. i is the global edge index; an edge outside the window
// is ignored.
func (g *Graph) noteWireMutation(l, i int) {
	cc := &g.cc
	if !cc.built {
		return
	}
	x, y := g.wireXY(l, i)
	s, line, ok := g.wireRun(l, x, y, 1)
	if !ok {
		return
	}
	cc.wireDirty[l-1][line].Store(1)
	cc.field.Wire[l-1][s] = g.wireValue(l, i)
	cc.invals.Add(1)
}

// noteViaMutation flags the prefix run of a mutated via edge's cell and
// the cell's row: the edge's cost is read from the table at its demand, so
// there is no value to write. cell is the global y*W+x index.
func (g *Graph) noteViaMutation(cell int) {
	cc := &g.cc
	if !cc.built {
		return
	}
	y := cell / g.W
	s, ok := g.viaCell(cell-y*g.W, y)
	if !ok {
		return
	}
	cc.viaDirty[s].Store(1)
	cc.viaRowDirty[y-cc.field.Win.Lo.Y].Store(1)
	cc.invals.Add(1)
}

// WarmCostCache brings the cost field up to date. The first call fills
// every wire edge of the window from the table and sums every prefix run;
// from then on wire values are kept fresh by write-through, so a warm only
// re-sums the prefix runs of dirty lines and cells. Cells are looked at
// only in rows whose summary flag is set, so a warm costs what the
// mutations since the last one touched, not the window. It must only be
// called at a single-threaded point of the cache's owner: it is the one
// place prefix sums are written, which is what lets concurrent readers
// skip all synchronization on them.
func (g *Graph) WarmCostCache() {
	cc := &g.cc
	if !cc.built {
		g.buildCostCache()
	}
	warmed := 0
	for l := 1; l <= g.L; l++ {
		val, pfx, dirty := cc.field.Wire[l-1], cc.wirePfx[l-1], cc.wireDirty[l-1]
		n := len(val) / len(dirty) // edges per line
		for li := range dirty {
			if dirty[li].Load() == 0 {
				continue
			}
			sum := 0.0
			run := pfx[li*(n+1) : (li+1)*(n+1)]
			for k, c := range val[li*n : (li+1)*n] {
				sum += c
				run[k+1] = sum
			}
			dirty[li].Store(0)
			warmed++
		}
	}
	win := cc.field.Win
	cw := win.Width()
	for r := range cc.viaRowDirty {
		if cc.viaRowDirty[r].Load() == 0 {
			continue
		}
		for s := r * cw; s < (r+1)*cw; s++ {
			if cc.viaDirty[s].Load() == 0 {
				continue
			}
			sum, cell := 0.0, (win.Lo.Y+r)*g.W+win.Lo.X+s-r*cw
			for b := 0; b < g.L-1; b++ {
				sum += g.viaValue(b+1, cell)
				cc.viaPfx[s*g.L+b+1] = sum
			}
			cc.viaDirty[s].Store(0)
			warmed++
		}
		cc.viaRowDirty[r].Store(0)
	}
	cc.warms.Add(int64(warmed))
}

// buildCostCache allocates the field and fills every wire edge of the
// window from the table, with every line, cell and row flagged dirty for
// WarmCostCache to sum and count. An edge is cached when its starting cell
// lies in the window, so a window flush against the grid's far side has
// one fewer edge per line.
func (g *Graph) buildCostCache() {
	cc := &g.cc
	f := &cc.field
	win := f.Win
	f.Wire = make([][]float64, g.L)
	f.dx, f.dy = make([]int, g.L), make([]int, g.L)
	cc.wirePfx = make([][]float64, g.L)
	cc.wireDirty = make([][]atomic.Uint32, g.L)
	for l := 1; l <= g.L; l++ {
		n, lines := geom.Min(win.Hi.X, g.W-2)-win.Lo.X+1, win.Height()
		if g.Dir(l) == Vertical {
			n, lines = geom.Min(win.Hi.Y, g.H-2)-win.Lo.Y+1, win.Width()
		}
		n = geom.Max(n, 0)
		f.dx[l-1], f.dy[l-1] = 1, n
		if g.Dir(l) == Vertical {
			f.dx[l-1], f.dy[l-1] = n, 1
		}
		val := make([]float64, lines*n)
		for li := 0; li < lines; li++ {
			for k := 0; k < n; k++ {
				x, y := win.Lo.X+k, win.Lo.Y+li
				if g.Dir(l) == Vertical {
					x, y = win.Lo.X+li, win.Lo.Y+k
				}
				val[li*n+k] = g.wireValue(l, g.WireIndex(l, x, y))
			}
		}
		f.Wire[l-1] = val
		cc.wirePfx[l-1] = make([]float64, lines*(n+1))
		cc.wireDirty[l-1] = dirtyFlags(lines)
	}
	cells := win.Area()
	f.Via, f.g = g.tab.via, g
	cc.viaPfx = make([]float64, cells*g.L)
	cc.viaDirty = dirtyFlags(cells)
	cc.viaRowDirty = dirtyFlags(win.Height())
	f.Hits = cc.hits
	cc.built = true
}

// dirtyFlags returns n flags, every one set.
func dirtyFlags(n int) []atomic.Uint32 {
	flags := make([]atomic.Uint32, n)
	for i := range flags {
		flags[i].Store(1)
	}
	return flags
}

// InvalidateCostCache drops the materialized field entirely; the next
// WarmCostCache rebuilds from scratch. Like Warm, coordinator-only. The
// cache window survives the flush.
func (g *Graph) InvalidateCostCache() {
	g.cc = costCache{
		field:  CostField{Win: g.cc.field.Win},
		hits:   g.cc.hits,
		misses: g.cc.misses,
		invals: g.cc.invals,
		warms:  g.cc.warms,
	}
}

// SegCostsAllLayers fills dst (len >= L) with SegCost(l, a, b) for every
// layer: +Inf where the run fights the layer's preferred direction, zero
// everywhere when a == b. One call replaces the per-layer dispatch in the
// pattern DP's candidate evaluation: the run is placed in the window once,
// and with a warm cache each feasible layer costs two prefix reads.
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
	var lo geom.Point
	n, s, line, inWin := 0, 0, 0, false
	for l := 1; l <= g.L; l++ {
		if g.Dir(l) != o {
			dst[l-1] = inf
			continue
		}
		if n == 0 {
			lo, n = g.segRun(l, a, b)
			s, line, inWin = g.wireRun(l, lo.X, lo.Y, n)
		}
		dst[l-1] = g.runCost(l, lo, n, s, line, inWin)
	}
}
