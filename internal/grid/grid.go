// Package grid implements the 3-D global-routing grid graph G(V,E) of
// Section II-A: one vertex per G-cell per metal layer, wire edges between
// adjacent G-cells along each layer's preferred direction, and via edges
// between vertically adjacent layers. Wire and via edges carry capacity and
// demand; edge costs follow CUGR's scheme — a wirelength unit plus a
// logistic congestion penalty — which is the cost model the paper's pattern
// and maze routers both optimize.
package grid

import (
	"fmt"
	"math"
	"slices"

	"fastgr/internal/design"
	"fastgr/internal/geom"
)

// Dir is a layer's preferred routing direction.
type Dir int

const (
	Horizontal Dir = iota // wires run along X
	Vertical              // wires run along Y
)

func (d Dir) String() string {
	if d == Horizontal {
		return "H"
	}
	return "V"
}

// CostParams configures the edge cost scheme.
type CostParams struct {
	// UnitWire is the base cost of one wire edge (one G-cell step).
	UnitWire float64
	// UnitVia is the base cost of one via edge (one layer crossing).
	UnitVia float64
	// CongestionWeight scales the logistic congestion penalty added to a
	// wire or via edge as its utilization approaches and passes 1.
	CongestionWeight float64
	// LogisticK is the steepness of the logistic around utilization 1.
	LogisticK float64
	// BlockedPenalty is added to edges with zero capacity, making them
	// near-forbidden without disconnecting the graph.
	BlockedPenalty float64
}

// DefaultCostParams mirrors the relative weighting CUGR uses: vias cost a
// few wire units, and congestion dominates once an edge overflows.
func DefaultCostParams() CostParams {
	return CostParams{
		UnitWire:         1.0,
		UnitVia:          2.0,
		CongestionWeight: 48.0,
		LogisticK:        10.0,
		BlockedPenalty:   64.0,
	}
}

// Graph is the 3-D routing grid. Layers are 1-based (1..L) to match the
// paper's notation. Odd layers route horizontally, even layers vertically;
// layer 1 is the pin layer with near-zero capacity.
type Graph struct {
	W, H, L int
	Params  CostParams

	dirs []Dir // dirs[l-1]

	// wireCap/wireDem[l-1] index wire edges of layer l. A horizontal layer
	// has (W-1)*H edges, edge (x,y) spanning (x,y)-(x+1,y), index y*(W-1)+x.
	// A vertical layer has W*(H-1) edges, edge (x,y) spanning (x,y)-(x,y+1),
	// index x*(H-1)+y.
	wireCap [][]int32
	wireDem [][]int32

	// viaCap/viaDem[b] index via edges crossing the boundary between layers
	// b+1 and b+2 (b in 0..L-2) at G-cell (x,y), index y*W+x.
	viaCap []int32
	viaDem [][]int32

	// history holds negotiated-congestion penalties (see history.go); nil
	// until EnableHistory.
	history [][]float32

	// edgeOff[k] is the first EdgeID of block k — one block per wire layer
	// 1..L, then one per via boundary 1..L-1 — and edgeOff[2L-1] the total
	// edge count.
	edgeOff []int

	// cc is the write-through cost-field cache (see costcache.go); inert
	// until the first WarmCostCache.
	cc costCache
}

// NewFromDesign builds the grid graph for a design, applying per-layer
// capacities and blockages, using the default cost parameters.
func NewFromDesign(d *design.Design) *Graph {
	return NewFromDesignParams(d, DefaultCostParams())
}

// NewFromDesignParams builds the grid graph with explicit cost parameters.
func NewFromDesignParams(d *design.Design, p CostParams) *Graph {
	g := &Graph{W: d.GridW, H: d.GridH, L: d.NumLayers, Params: p}
	g.dirs = make([]Dir, g.L)
	for l := 1; l <= g.L; l++ {
		if l%2 == 1 {
			g.dirs[l-1] = Horizontal
		} else {
			g.dirs[l-1] = Vertical
		}
	}
	g.wireCap = make([][]int32, g.L)
	g.wireDem = make([][]int32, g.L)
	g.edgeOff = make([]int, 2*g.L)
	for k := 1; k < 2*g.L; k++ {
		n := g.W * g.H
		if k <= g.L {
			n = g.numWireEdges(k)
		}
		g.edgeOff[k] = g.edgeOff[k-1] + n
	}
	if g.edgeOff[2*g.L-1] > math.MaxUint32 {
		panic(fmt.Sprintf("grid: %dx%dx%d has more edges than an EdgeID can name", g.W, g.H, g.L))
	}
	for l := 1; l <= g.L; l++ {
		n := g.numWireEdges(l)
		g.wireCap[l-1] = make([]int32, n)
		g.wireDem[l-1] = make([]int32, n)
		cap := int32(d.LayerCapacity[l-1])
		for i := range g.wireCap[l-1] {
			g.wireCap[l-1][i] = cap
		}
	}
	g.viaCap = make([]int32, g.L-1)
	g.viaDem = make([][]int32, g.L-1)
	for b := 0; b < g.L-1; b++ {
		g.viaCap[b] = int32(d.ViaCapacity)
		g.viaDem[b] = make([]int32, g.W*g.H)
	}
	for _, blk := range d.Blockages {
		g.applyBlockage(blk)
	}
	g.cc.win = g.fullRect()
	g.cc.full = true
	return g
}

// WindowView returns a Graph sharing every capacity, demand, and history
// array with g — mutations through either are visible to both — but holding
// its own cost cache bounded to win. A shard routes through its view: the
// view's cache stays leaf-sized (the sharded pipeline's peak-memory win)
// and mutations through the view write through to the view's cache, never
// the parent's. The parent's cache must therefore be cold (or invalidated)
// while views are live; the core pipeline never warms it between view
// phases. Views are coordinator-created and must not outlive the phase
// whose mutations they observed.
func (g *Graph) WindowView(win geom.Rect) *Graph {
	v := &Graph{
		W: g.W, H: g.H, L: g.L, Params: g.Params,
		dirs: g.dirs, edgeOff: g.edgeOff,
		wireCap: g.wireCap, wireDem: g.wireDem,
		viaCap: g.viaCap, viaDem: g.viaDem,
		history: g.history,
	}
	v.cc.win = win.ClampTo(g.W, g.H)
	v.cc.full = v.cc.win == g.fullRect()
	v.cc.hits = g.cc.hits
	v.cc.misses = g.cc.misses
	v.cc.invals = g.cc.invals
	v.cc.warms = g.cc.warms
	return v
}

func (g *Graph) applyBlockage(b design.Blockage) {
	l := b.Layer
	keep := 1 - b.Density
	r := b.Region.ClampTo(g.W, g.H)
	if g.Dir(l) == Horizontal {
		for y := r.Lo.Y; y <= r.Hi.Y; y++ {
			for x := r.Lo.X; x <= r.Hi.X && x < g.W-1; x++ {
				i := g.WireIndex(l, x, y)
				g.wireCap[l-1][i] = int32(math.Floor(float64(g.wireCap[l-1][i]) * keep))
			}
		}
	} else {
		for x := r.Lo.X; x <= r.Hi.X; x++ {
			for y := r.Lo.Y; y <= r.Hi.Y && y < g.H-1; y++ {
				i := g.WireIndex(l, x, y)
				g.wireCap[l-1][i] = int32(math.Floor(float64(g.wireCap[l-1][i]) * keep))
			}
		}
	}
}

// Dir returns the preferred direction of layer l.
func (g *Graph) Dir(l int) Dir { return g.dirs[l-1] }

func (g *Graph) numWireEdges(l int) int {
	if g.Dir(l) == Horizontal {
		return (g.W - 1) * g.H
	}
	return g.W * (g.H - 1)
}

// WireIndex maps the wire edge on layer l starting at (x,y) and running one
// step in the layer's preferred direction to its slot in the edge arrays.
func (g *Graph) WireIndex(l, x, y int) int {
	if g.Dir(l) == Horizontal {
		return y*(g.W-1) + x
	}
	return x*(g.H-1) + y
}

// wireXY inverts WireIndex.
func (g *Graph) wireXY(l, i int) (x, y int) {
	if g.Dir(l) == Horizontal {
		return i % (g.W - 1), i / (g.W - 1)
	}
	return i / (g.H - 1), i % (g.H - 1)
}

// WireCap returns the capacity of the wire edge at (x,y) on layer l.
func (g *Graph) WireCap(l, x, y int) int { return int(g.wireCap[l-1][g.WireIndex(l, x, y)]) }

// WireDem returns the demand of the wire edge at (x,y) on layer l.
func (g *Graph) WireDem(l, x, y int) int { return int(g.wireDem[l-1][g.WireIndex(l, x, y)]) }

// ViaCap returns the via capacity across the boundary above layer l.
func (g *Graph) ViaCap(l int) int { return int(g.viaCap[l-1]) }

// ViaDem returns the via demand at (x,y) across the boundary above layer l.
func (g *Graph) ViaDem(x, y, l int) int { return int(g.viaDem[l-1][y*g.W+x]) }

// logistic is the congestion penalty shape: ~0 when utilization is low,
// CongestionWeight/2 at utilization 1, saturating at CongestionWeight.
func (g *Graph) logistic(dem, cap int32) float64 {
	var u float64
	if cap <= 0 {
		u = float64(dem) + 1.5 // treat as heavily over-utilized
	} else {
		u = (float64(dem) + 0.5) / float64(cap)
	}
	return g.Params.CongestionWeight / (1 + math.Exp(-g.Params.LogisticK*(u-1)))
}

// WireCost is the cost c_w of using one wire edge at (x,y) on layer l,
// evaluated at the edge's current demand (i.e., the cost of adding one more
// track through it). With a built cost cache this is an array load — the
// field is written through at mutation time, so it is never stale; an
// unbuilt cache or an edge outside the cache window evaluates the formula.
func (g *Graph) WireCost(l, x, y int) float64 {
	i := g.WireIndex(l, x, y)
	if cc := &g.cc; cc.built {
		if cc.full {
			cc.hits.Add(1)
			return cc.wireVal[l-1][i]
		}
		if li, ok := g.ccWireLocal(l, x, y); ok {
			cc.hits.Add(1)
			return cc.wireVal[l-1][li]
		}
	}
	g.cc.misses.Add(1)
	return g.wireCostAt(l, i)
}

// SegCost is the cost of a straight wire from a to b on layer l. The segment
// must run along the layer's preferred direction; a == b costs zero. With a
// warm cost cache and a clean line this is two prefix-sum reads (the
// prefix-sum total can differ from the edge-walk total by float rounding;
// consumers compare segment costs with tolerances); a line mutated since the
// last warm falls back to walking the edges' cached values.
func (g *Graph) SegCost(l int, a, b geom.Point) float64 {
	if a == b {
		return 0
	}
	total := 0.0
	if g.Dir(l) == Horizontal {
		if a.Y != b.Y {
			panic(fmt.Sprintf("grid: horizontal segment %v-%v on layer %d misaligned", a, b, l))
		}
		lo, hi := geom.Min(a.X, b.X), geom.Max(a.X, b.X)
		if cc := &g.cc; cc.built && cc.full && cc.wireDirty[l-1][a.Y].Load() == 0 {
			cc.hits.Add(1)
			p := cc.wirePfx[l-1][a.Y*g.W:]
			return p[hi] - p[lo]
		}
		for x := lo; x < hi; x++ {
			total += g.WireCost(l, x, a.Y)
		}
	} else {
		if a.X != b.X {
			panic(fmt.Sprintf("grid: vertical segment %v-%v on layer %d misaligned", a, b, l))
		}
		lo, hi := geom.Min(a.Y, b.Y), geom.Max(a.Y, b.Y)
		if cc := &g.cc; cc.built && cc.full && cc.wireDirty[l-1][a.X].Load() == 0 {
			cc.hits.Add(1)
			p := cc.wirePfx[l-1][a.X*g.H:]
			return p[hi] - p[lo]
		}
		for y := lo; y < hi; y++ {
			total += g.WireCost(l, a.X, y)
		}
	}
	return total
}

// ViaEdgeCost is the cost of one via edge at (x,y) crossing the boundary
// above layer l. Cached like WireCost.
func (g *Graph) ViaEdgeCost(x, y, l int) float64 {
	i := y*g.W + x
	if cc := &g.cc; cc.built {
		if cc.full {
			cc.hits.Add(1)
			return cc.viaVal[l-1][i]
		}
		if ci, ok := g.ccViaLocal(x, y); ok {
			cc.hits.Add(1)
			return cc.viaVal[l-1][ci]
		}
	}
	g.cc.misses.Add(1)
	return g.viaCostAt(l, i)
}

// ViaStackCost is c_v(u, l1, l2): the cost of the via stack at (x,y)
// connecting layers l1 and l2 (either order); zero when l1 == l2. With a
// warm cache and a clean cell this is two prefix-sum reads over the cell's
// boundary column.
func (g *Graph) ViaStackCost(x, y, l1, l2 int) float64 {
	lo, hi := geom.Min(l1, l2), geom.Max(l1, l2)
	if lo == hi {
		return 0
	}
	if p := g.ViaPrefix(x, y); p != nil {
		g.cc.hits.Add(1)
		return p[hi-1] - p[lo-1]
	}
	total := 0.0
	for l := lo; l < hi; l++ {
		total += g.ViaEdgeCost(x, y, l)
	}
	return total
}

// segSpan returns the first wire-edge slot and the edge count of the
// straight run a-b on layer l (the slots of one run are consecutive); a run
// across the layer's preferred direction panics.
func (g *Graph) segSpan(l int, a, b geom.Point) (first, n int) {
	if g.Dir(l) == Horizontal {
		if a.Y != b.Y {
			panic(fmt.Sprintf("grid: horizontal segment %v-%v on layer %d misaligned", a, b, l))
		}
		return g.WireIndex(l, geom.Min(a.X, b.X), a.Y), geom.Abs(a.X - b.X)
	}
	if a.X != b.X {
		panic(fmt.Sprintf("grid: vertical segment %v-%v on layer %d misaligned", a, b, l))
	}
	return g.WireIndex(l, a.X, geom.Min(a.Y, b.Y)), geom.Abs(a.Y - b.Y)
}

// AddSegDemand adds delta tracks of demand to every wire edge of the
// straight segment a-b on layer l. delta may be negative (rip-up); demand
// never goes below zero — underflow indicates a commit/rip-up mismatch and
// panics.
func (g *Graph) AddSegDemand(l int, a, b geom.Point, delta int) {
	first, n := g.segSpan(l, a, b)
	for i := first; i < first+n; i++ {
		g.addWireDemand(l, i, int32(delta))
	}
}

func (g *Graph) addWireDemand(l, i int, delta int32) {
	g.wireDem[l-1][i] += delta
	if g.wireDem[l-1][i] < 0 {
		x, y := g.wireXY(l, i)
		panic(fmt.Sprintf("grid: wire demand underflow at layer %d (%d,%d)", l, x, y))
	}
	g.noteWireMutation(l, i)
}

// AddViaStackDemand adds delta to every via edge of the stack at (x,y)
// between layers l1 and l2.
func (g *Graph) AddViaStackDemand(x, y, l1, l2, delta int) {
	for l := geom.Min(l1, l2); l < geom.Max(l1, l2); l++ {
		g.addViaDemand(l, y*g.W+x, int32(delta))
	}
}

func (g *Graph) addViaDemand(l, i int, delta int32) {
	g.viaDem[l-1][i] += delta
	if g.viaDem[l-1][i] < 0 {
		panic(fmt.Sprintf("grid: via demand underflow at (%d,%d) layer %d", i%g.W, i/g.W, l))
	}
	g.noteViaMutation(l, i)
}

// EdgeID names one wire or via edge of the grid in four bytes: the wire
// edges of layers 1..L in WireIndex order, then the via edges of boundaries
// 1..L-1 in cell order. IDs are a pure function of (W, H, L), so a list
// built on one grid addresses the same edges on any grid of the same design.
type EdgeID uint32

// AppendSegEdges appends the IDs of the wire edges of segment a-b on layer l.
func (g *Graph) AppendSegEdges(dst []EdgeID, l int, a, b geom.Point) []EdgeID {
	first, n := g.segSpan(l, a, b)
	for e := g.edgeOff[l-1] + first; e < g.edgeOff[l-1]+first+n; e++ {
		dst = append(dst, EdgeID(e))
	}
	return dst
}

// AppendViaEdges appends the IDs of the via edges of the stack at (x,y)
// between layers l1 and l2.
func (g *Graph) AppendViaEdges(dst []EdgeID, x, y, l1, l2 int) []EdgeID {
	for l := geom.Min(l1, l2); l < geom.Max(l1, l2); l++ {
		dst = append(dst, EdgeID(g.edgeOff[g.L+l-1]+y*g.W+x))
	}
	return dst
}

// FirstViaEdge is the smallest via-edge ID: every EdgeID below it names a
// wire edge.
func (g *Graph) FirstViaEdge() EdgeID { return EdgeID(g.edgeOff[g.L]) }

// edgeSlot resolves e to its block (wire layers 0..L-1, then via boundaries)
// and its slot in that block's arrays, scanning up from block k: a caller
// walking an ascending list passes the previous result, so the whole list
// costs one pass over the offsets.
func (g *Graph) edgeSlot(e EdgeID, k int) (blk, i int) {
	for int(e) >= g.edgeOff[k+1] {
		k++
	}
	return k, int(e) - g.edgeOff[k]
}

// AddEdgeDemand adds delta to the demand of every edge of an ascending ID
// list — the commit (+1) and rip-up (-1) of a sealed route.
func (g *Graph) AddEdgeDemand(edges []EdgeID, delta int) {
	k, i := 0, 0
	for _, e := range edges {
		if k, i = g.edgeSlot(e, k); k < g.L {
			g.addWireDemand(k+1, i, int32(delta))
		} else {
			g.addViaDemand(k-g.L+1, i, int32(delta))
		}
	}
}

// AnyEdgeOverflow reports whether any edge of an ascending ID list is over
// capacity.
func (g *Graph) AnyEdgeOverflow(edges []EdgeID) bool {
	k, i := 0, 0
	for _, e := range edges {
		if k, i = g.edgeSlot(e, k); k < g.L {
			if g.wireDem[k][i] > g.wireCap[k][i] {
				return true
			}
		} else if g.viaDem[k-g.L][i] > g.viaCap[k-g.L] {
			return true
		}
	}
	return false
}

// EdgeEnds returns the two grid nodes edge e joins.
func (g *Graph) EdgeEnds(e EdgeID) (a, b geom.Point3) {
	k, i := g.edgeSlot(e, 0)
	if k >= g.L {
		a = geom.Point3{X: i % g.W, Y: i / g.W, Layer: k - g.L + 1}
		return a, geom.Point3{X: a.X, Y: a.Y, Layer: a.Layer + 1}
	}
	x, y := g.wireXY(k+1, i)
	a = geom.Point3{X: x, Y: y, Layer: k + 1}
	if g.dirs[k] == Horizontal {
		return a, geom.Point3{X: x + 1, Y: y, Layer: k + 1}
	}
	return a, geom.Point3{X: x, Y: y + 1, Layer: k + 1}
}

// NumEdges is the number of wire and via edges: every EdgeID of the grid
// is below it.
func (g *Graph) NumEdges() int { return g.edgeOff[2*g.L-1] }

// Run is one maximal straight piece of an edge list: a wire run on layer
// Lo == Hi from A to B (A before B along the layer's direction), or a via
// stack at A == B joining layers Lo < Hi. Either way the G-cells it touches
// are those from A to B on every layer from Lo to Hi.
type Run struct {
	A, B   geom.Point
	Lo, Hi int
}

// AppendRuns appends the maximal runs an ascending, duplicate-free edge
// list spells: wire runs in edge order (layer, then line, then position),
// then via stacks in the order of their lowest edges.
func (g *Graph) AppendRuns(dst []Run, edges []EdgeID) []Run {
	k, i := 0, 0
	for first := g.FirstViaEdge(); i < len(edges) && edges[i] < first; {
		blk, s := g.edgeSlot(edges[i], k)
		k = blk
		l := blk + 1
		line := g.H - 1
		if g.dirs[blk] == Horizontal {
			line = g.W - 1
		}
		// A run continues while the IDs do, up to the end of its line; block
		// sizes are whole lines, so this also stops at a block.
		n, room := 1, line-s%line
		for n < room && i+n < len(edges) && edges[i+n] == edges[i]+EdgeID(n) {
			n++
		}
		x, y := g.wireXY(l, s)
		b := geom.Point{X: x, Y: y + n}
		if g.dirs[blk] == Horizontal {
			b = geom.Point{X: x + n, Y: y}
		}
		dst = append(dst, Run{A: geom.Point{X: x, Y: y}, B: b, Lo: l, Hi: l})
		i += n
	}
	// A via edge one plane above another at the same cell continues its
	// stack; a stack starts where the edge below is missing. e - plane
	// rises with e, so one cursor finds every edge below.
	vias, plane := edges[i:], EdgeID(g.W*g.H)
	below := 0
	for p, e := range vias {
		for below < p && vias[below]+plane < e {
			below++
		}
		if below < p && vias[below]+plane == e {
			continue
		}
		blk, s := g.edgeSlot(e, k)
		k = blk
		hi := blk - g.L + 2
		for q, top := p+1, e+plane; ; top += plane {
			n, found := slices.BinarySearch(vias[q:], top)
			if !found {
				break
			}
			q += n
			hi++
		}
		a := geom.Point{X: s % g.W, Y: s / g.W}
		dst = append(dst, Run{A: a, B: a, Lo: blk - g.L + 1, Hi: hi})
	}
	return dst
}

// Overflow sums max(0, demand-capacity) over wire and via edges — the
// global-routing proxy for the number of shorts (metric S in eq. 15).
func (g *Graph) Overflow() (wire, via int) {
	for l := 0; l < g.L; l++ {
		for i, c := range g.wireCap[l] {
			if ov := g.wireDem[l][i] - c; ov > 0 {
				wire += int(ov)
			}
		}
	}
	for b := 0; b < g.L-1; b++ {
		for _, d := range g.viaDem[b] {
			if ov := d - g.viaCap[b]; ov > 0 {
				via += int(ov)
			}
		}
	}
	return wire, via
}

// TotalDemand sums wire demand (G-cell wirelength units) and via demand
// (via counts) over the whole grid.
func (g *Graph) TotalDemand() (wire, via int) {
	for l := 0; l < g.L; l++ {
		for _, d := range g.wireDem[l] {
			wire += int(d)
		}
	}
	for b := 0; b < g.L-1; b++ {
		for _, d := range g.viaDem[b] {
			via += int(d)
		}
	}
	return wire, via
}

// CongestionCell summarizes one G-cell column for congestion-map dumps.
type CongestionCell struct {
	Demand   int
	Capacity int
}

// CongestionMap2D collapses wire demand/capacity over all layers onto the
// 2-D grid, row-major, for reporting and the congestion example.
func (g *Graph) CongestionMap2D() []CongestionCell {
	m := make([]CongestionCell, g.W*g.H)
	for l := 1; l <= g.L; l++ {
		if g.Dir(l) == Horizontal {
			for y := 0; y < g.H; y++ {
				for x := 0; x < g.W-1; x++ {
					i := g.WireIndex(l, x, y)
					m[y*g.W+x].Demand += int(g.wireDem[l-1][i])
					m[y*g.W+x].Capacity += int(g.wireCap[l-1][i])
				}
			}
		} else {
			for x := 0; x < g.W; x++ {
				for y := 0; y < g.H-1; y++ {
					i := g.WireIndex(l, x, y)
					m[y*g.W+x].Demand += int(g.wireDem[l-1][i])
					m[y*g.W+x].Capacity += int(g.wireCap[l-1][i])
				}
			}
		}
	}
	return m
}

// InBounds reports whether (x,y) is a valid G-cell.
func (g *Graph) InBounds(x, y int) bool {
	return x >= 0 && x < g.W && y >= 0 && y < g.H
}

// HasWireEdge reports whether a wire edge exists at (x,y) on layer l (i.e.,
// the step in the preferred direction stays on the grid).
func (g *Graph) HasWireEdge(l, x, y int) bool {
	if !g.InBounds(x, y) {
		return false
	}
	if g.Dir(l) == Horizontal {
		return x < g.W-1
	}
	return y < g.H-1
}
