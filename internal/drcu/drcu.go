// Package drcu is a Dr.CU-style detailed router used to evaluate global
// routing guides the way the paper's Table X does: each G-cell is refined
// into FxF fine cells, every net is constrained to the fine-grid region its
// guides cover (plus one fine cell of slack, as detailed routers allow), and
// nets are routed sequentially with a masked 3-D Dijkstra. Overflowed fine
// edges are shorts; parallel runs at minimum pitch are spacing violations.
//
// Package dr's track-assignment evaluator is the fast estimator; this
// package actually routes, so guide quality differences show up as routed
// wirelength/via/short differences, which is what Table X reports.
package drcu

import (
	"container/heap"
	"fmt"
	"sort"

	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/route"
)

// Refine is the fine cells per G-cell side (Dr.CU operates on routing
// tracks; 3 tracks per G-cell per layer matches our capacity scale).
const Refine = 3

// Metrics is the detailed-routing outcome for one design.
type Metrics struct {
	Wirelength int // fine-grid wire edges used
	Vias       int // fine-grid via edges used
	Shorts     int // fine wire/via edges used beyond capacity
	Spacing    int // minimum-pitch parallel-run violations
	Unrouted   int // nets whose guides disconnected them (should be 0)
}

// Config tunes the detailed router.
type Config struct {
	// GuideSlack inflates each guide region by this many fine cells, the
	// standard detailed-routing tolerance.
	GuideSlack int
	// FineCapacity is the per-fine-edge track capacity on routing layers.
	FineCapacity int
}

// DefaultConfig mirrors Dr.CU's defaults at our grid scale.
func DefaultConfig() Config {
	return Config{GuideSlack: 1, FineCapacity: 2}
}

// fineGraph is a lightweight fine-grid occupancy structure. Layer
// directions repeat the coarse grid's (odd horizontal, even vertical).
type fineGraph struct {
	w, h, l int
	cfg     Config
	coarse  *grid.Graph
	// demand per fine wire edge, indexed like grid.Graph's wire edges.
	wireDem [][]int16
	viaDem  [][]int16
	// wireNet remembers the last net on each edge for spacing analysis.
	wireNet [][]int32
}

func newFineGraph(g *grid.Graph, cfg Config) *fineGraph {
	f := &fineGraph{w: g.W * Refine, h: g.H * Refine, l: g.L, cfg: cfg, coarse: g}
	f.wireDem = make([][]int16, g.L)
	f.wireNet = make([][]int32, g.L)
	f.viaDem = make([][]int16, g.L-1)
	for l := 1; l <= g.L; l++ {
		n := f.numWireEdges(l)
		f.wireDem[l-1] = make([]int16, n)
		f.wireNet[l-1] = make([]int32, n)
		for i := range f.wireNet[l-1] {
			f.wireNet[l-1][i] = -1
		}
	}
	for b := 0; b < g.L-1; b++ {
		f.viaDem[b] = make([]int16, f.w*f.h)
	}
	return f
}

func (f *fineGraph) dir(l int) grid.Dir { return f.coarse.Dir(l) }

func (f *fineGraph) numWireEdges(l int) int {
	if f.dir(l) == grid.Horizontal {
		return (f.w - 1) * f.h
	}
	return f.w * (f.h - 1)
}

func (f *fineGraph) wireIndex(l, x, y int) int {
	if f.dir(l) == grid.Horizontal {
		return y*(f.w-1) + x
	}
	return x*(f.h-1) + y
}

// wireCap derives the fine edge's capacity from the coarse edge it refines:
// a G-cell edge with C tracks spreads them over the Refine parallel fine
// rows (remainder to the lowest rows), so a capacity-1 pin layer stays a
// single track and blockages stay blocked. FineCapacity caps the per-row
// track count (track pitch).
func (f *fineGraph) wireCap(l, x, y int) int {
	cx, cy := x/Refine, y/Refine
	var row int
	if f.dir(l) == grid.Horizontal {
		if cx >= f.coarse.W-1 {
			cx = f.coarse.W - 2
		}
		row = y % Refine
	} else {
		if cy >= f.coarse.H-1 {
			cy = f.coarse.H - 2
		}
		row = x % Refine
	}
	c := f.coarse.WireCap(l, cx, cy)
	share := c / Refine
	if row < c%Refine {
		share++
	}
	if share > f.cfg.FineCapacity {
		share = f.cfg.FineCapacity
	}
	return share
}

// Evaluate detail-routes every net of a global-routing result under its
// guides and scores the outcome.
func Evaluate(res *core.Result, cfg Config) Metrics {
	g := res.Grid
	f := newFineGraph(g, cfg)

	// Net order: ascending HPWL, the ordering the paper settles on.
	nets := append([]*design.Net(nil), res.Design.Nets...)
	sort.Slice(nets, func(i, j int) bool {
		hi, hj := nets[i].HPWL(), nets[j].HPWL()
		if hi != hj {
			return hi < hj
		}
		return nets[i].ID < nets[j].ID
	})

	var m Metrics
	for _, n := range nets {
		r := res.Routes[n.ID]
		if r == nil {
			continue
		}
		mask := guideMask(f, r, cfg.GuideSlack)
		pins := finePins(n)
		ok := f.routeNet(int32(n.ID), pins, mask, &m)
		if !ok {
			m.Unrouted++
		}
	}
	f.score(&m)
	return m
}

// finePins maps a net's pins to fine-grid terminals (G-cell centers).
func finePins(n *design.Net) []geom.Point3 {
	var pins []geom.Point3
	seen := map[geom.Point3]bool{}
	for _, p := range n.Pins {
		fp := geom.Point3{
			X:     p.Pos.X*Refine + Refine/2,
			Y:     p.Pos.Y*Refine + Refine/2,
			Layer: p.Layer,
		}
		if !seen[fp] {
			seen[fp] = true
			pins = append(pins, fp)
		}
	}
	return pins
}

// guideMask returns the set of fine cells (per layer) a net may use: the
// fine expansion of every G-cell its guides touch, inflated by slack.
type mask struct {
	cells map[int64]bool
	bbox  geom.Rect
}

func maskKey(x, y, l int) int64 {
	return (int64(l)<<40 | int64(y)<<20 | int64(x))
}

func guideMask(f *fineGraph, r *route.NetRoute, slack int) *mask {
	m := &mask{cells: make(map[int64]bool)}
	first := true
	add := func(cx, cy, l int) {
		lox := geom.Max(0, cx*Refine-slack)
		hix := geom.Min(f.w-1, (cx+1)*Refine-1+slack)
		loy := geom.Max(0, cy*Refine-slack)
		hiy := geom.Min(f.h-1, (cy+1)*Refine-1+slack)
		for y := loy; y <= hiy; y++ {
			for x := lox; x <= hix; x++ {
				m.cells[maskKey(x, y, l)] = true
			}
		}
		r := geom.NewRect(geom.Point{X: lox, Y: loy}, geom.Point{X: hix, Y: hiy})
		if first {
			m.bbox = r
			first = false
		} else {
			m.bbox = m.bbox.Union(r)
		}
	}
	for _, run := range f.coarse.AppendRuns(nil, r.Edges()) {
		for l := run.Lo; l <= run.Hi; l++ {
			for y := run.A.Y; y <= run.B.Y; y++ {
				for x := run.A.X; x <= run.B.X; x++ {
					add(x, y, l)
				}
			}
		}
	}
	return m
}

func (m *mask) allows(x, y, l int) bool { return m.cells[maskKey(x, y, l)] }

// edge costs on the fine grid: unit wire plus a quadratic crowding penalty,
// so the router prefers free tracks but can overlap (creating shorts) when
// the guide region is exhausted.
func (f *fineGraph) wireCost(l, x, y int) float64 {
	cap := f.wireCap(l, x, y)
	dem := int(f.wireDem[l-1][f.wireIndex(l, x, y)])
	c := 1.0
	if dem >= cap {
		over := float64(dem - cap + 1)
		c += 8 * over * over
	}
	return c
}

func (f *fineGraph) viaCost(x, y, l int) float64 {
	dem := int(f.viaDem[l-1][y*f.w+x])
	c := 2.0
	if dem >= f.cfg.FineCapacity {
		over := float64(dem - f.cfg.FineCapacity + 1)
		c += 8 * over * over
	}
	return c
}

// routeNet connects the net's fine pins inside the mask pin by pin; returns
// false when the guides disconnect the pins.
func (f *fineGraph) routeNet(netID int32, pins []geom.Point3, msk *mask, m *Metrics) bool {
	if len(pins) == 0 {
		return true
	}
	// Pins are guaranteed inside the guides (guides cover the routed
	// geometry, which touches every pin G-cell), but be defensive.
	for _, p := range pins {
		if !msk.allows(p.X, p.Y, p.Layer) {
			return false
		}
	}
	connected := []geom.Point3{pins[0]}
	inConn := map[geom.Point3]bool{pins[0]: true}
	remaining := map[geom.Point3]bool{}
	for _, p := range pins[1:] {
		if p != pins[0] {
			remaining[p] = true
		}
	}
	for len(remaining) > 0 {
		nodes, ok := f.dijkstra(connected, remaining, msk)
		if !ok {
			return false
		}
		reached := nodes[0]
		delete(remaining, reached)
		f.commit(netID, nodes, m)
		for _, nd := range nodes {
			if !inConn[nd] {
				inConn[nd] = true
				connected = append(connected, nd)
			}
		}
	}
	return true
}

// commit walks consecutive path nodes, bumping fine demand and counting
// wirelength/vias (edges already used by this very net are free — node
// lists may revisit the connected tree's joint).
func (f *fineGraph) commit(netID int32, nodes []geom.Point3, m *Metrics) {
	for i := 1; i < len(nodes); i++ {
		a, b := nodes[i-1], nodes[i]
		if a.Layer != b.Layer {
			lo := geom.Min(a.Layer, b.Layer)
			f.viaDem[lo-1][a.Y*f.w+a.X]++
			m.Vias++
			continue
		}
		var l, x, y int
		l = a.Layer
		if a.Y == b.Y {
			x, y = geom.Min(a.X, b.X), a.Y
		} else {
			x, y = a.X, geom.Min(a.Y, b.Y)
		}
		idx := f.wireIndex(l, x, y)
		if f.wireNet[l-1][idx] == netID {
			continue // same net already owns this edge
		}
		f.wireNet[l-1][idx] = netID
		f.wireDem[l-1][idx]++
		m.Wirelength++
	}
}

// score derives shorts and spacing from the final fine occupancy.
func (f *fineGraph) score(m *Metrics) {
	for l := 1; l <= f.l; l++ {
		var limX, limY int
		if f.dir(l) == grid.Horizontal {
			limX, limY = f.w-1, f.h
		} else {
			limX, limY = f.w, f.h-1
		}
		for y := 0; y < limY; y++ {
			for x := 0; x < limX; x++ {
				dem := int(f.wireDem[l-1][f.wireIndex(l, x, y)])
				cap := f.wireCap(l, x, y)
				if dem > cap {
					m.Shorts += dem - cap
				}
			}
		}
		// Spacing: two distinct nets on adjacent parallel fine edges (the
		// minimum-pitch situation a rule checker flags). Sampled every
		// other position to mirror real checkers' merged violations.
		if f.dir(l) == grid.Horizontal {
			for y := 0; y+1 < f.h; y++ {
				for x := 0; x < f.w-1; x += 2 {
					a := f.wireNet[l-1][f.wireIndex(l, x, y)]
					b := f.wireNet[l-1][f.wireIndex(l, x, y+1)]
					if a >= 0 && b >= 0 && a != b {
						m.Spacing++
					}
				}
			}
		} else {
			for x := 0; x+1 < f.w; x++ {
				for y := 0; y < f.h-1; y += 2 {
					a := f.wireNet[l-1][f.wireIndex(l, x, y)]
					b := f.wireNet[l-1][f.wireIndex(l, x+1, y)]
					if a >= 0 && b >= 0 && a != b {
						m.Spacing++
					}
				}
			}
		}
	}
	for b := 0; b < f.l-1; b++ {
		for _, d := range f.viaDem[b] {
			if int(d) > f.cfg.FineCapacity {
				m.Shorts += int(d) - f.cfg.FineCapacity
			}
		}
	}
}

// dijkstra runs a masked multi-source search to the nearest remaining pin
// and returns the path's node list (target first). Hash-map state keeps the
// sparse mask regions cheap.
func (f *fineGraph) dijkstra(sources []geom.Point3, targets map[geom.Point3]bool, msk *mask) ([]geom.Point3, bool) {
	dist := make(map[geom.Point3]float64, len(msk.cells))
	parent := make(map[geom.Point3]geom.Point3, len(msk.cells))
	q := &fpq{}
	for _, s := range sources {
		if !msk.allows(s.X, s.Y, s.Layer) {
			continue
		}
		if d, ok := dist[s]; !ok || d > 0 {
			dist[s] = 0
			heap.Push(q, fpqItem{s, 0})
		}
	}
	visited := make(map[geom.Point3]bool, len(msk.cells))
	for q.Len() > 0 {
		it := heap.Pop(q).(fpqItem)
		if visited[it.p] || it.d > dist[it.p]+1e-12 {
			continue
		}
		visited[it.p] = true
		if targets[it.p] {
			// Reconstruct target-first node list.
			var nodes []geom.Point3
			for p := it.p; ; {
				nodes = append(nodes, p)
				pp, ok := parent[p]
				if !ok {
					break
				}
				p = pp
			}
			return nodes, true
		}
		f.relax(it.p, dist, parent, q, msk)
	}
	return nil, false
}

func (f *fineGraph) relax(p geom.Point3, dist map[geom.Point3]float64,
	parent map[geom.Point3]geom.Point3, q *fpq, msk *mask) {
	d := dist[p]
	try := func(np geom.Point3, c float64) {
		if !msk.allows(np.X, np.Y, np.Layer) {
			return
		}
		nd := d + c
		if old, ok := dist[np]; !ok || nd < old {
			dist[np] = nd
			parent[np] = p
			heap.Push(q, fpqItem{np, nd})
		}
	}
	if f.dir(p.Layer) == grid.Horizontal {
		if p.X+1 < f.w {
			try(geom.Point3{X: p.X + 1, Y: p.Y, Layer: p.Layer}, f.wireCost(p.Layer, p.X, p.Y))
		}
		if p.X-1 >= 0 {
			try(geom.Point3{X: p.X - 1, Y: p.Y, Layer: p.Layer}, f.wireCost(p.Layer, p.X-1, p.Y))
		}
	} else {
		if p.Y+1 < f.h {
			try(geom.Point3{X: p.X, Y: p.Y + 1, Layer: p.Layer}, f.wireCost(p.Layer, p.X, p.Y))
		}
		if p.Y-1 >= 0 {
			try(geom.Point3{X: p.X, Y: p.Y - 1, Layer: p.Layer}, f.wireCost(p.Layer, p.X, p.Y-1))
		}
	}
	if p.Layer+1 <= f.l {
		try(geom.Point3{X: p.X, Y: p.Y, Layer: p.Layer + 1}, f.viaCost(p.X, p.Y, p.Layer))
	}
	if p.Layer-1 >= 1 {
		try(geom.Point3{X: p.X, Y: p.Y, Layer: p.Layer - 1}, f.viaCost(p.X, p.Y, p.Layer-1))
	}
}

type fpqItem struct {
	p geom.Point3
	d float64
}

type fpq []fpqItem

func (q fpq) Len() int            { return len(q) }
func (q fpq) Less(i, j int) bool  { return q[i].d < q[j].d }
func (q fpq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *fpq) Push(x interface{}) { *q = append(*q, x.(fpqItem)) }
func (q *fpq) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// Validate sanity-checks a metrics record.
func (m Metrics) Validate() error {
	if m.Wirelength < 0 || m.Vias < 0 || m.Shorts < 0 || m.Spacing < 0 || m.Unrouted < 0 {
		return fmt.Errorf("drcu: negative metric: %+v", m)
	}
	return nil
}

// Score folds the detailed metrics with the global-routing weights of
// eq. 15 for quick comparisons.
func (m Metrics) Score() float64 {
	return 0.5*float64(m.Wirelength) + 4*float64(m.Vias) +
		500*float64(m.Shorts) + 100*float64(m.Spacing) + 5000*float64(m.Unrouted)
}
