// Package dr evaluates a global-routing solution the way Table X does — by
// running detailed routing under the guides and reporting wirelength, vias,
// shorts and spacing violations. The full Dr.CU detailed router is not
// reproducible offline; this evaluator performs the dominant first-order
// step, panel-by-panel track assignment: every net's wires inside a routing
// panel (one row of a horizontal layer or one column of a vertical layer)
// are intervals that must receive distinct tracks; positions where the
// interval load exceeds track capacity become shorts, and long parallel
// runs on adjacent tracks become spacing-violation risks.
package dr

import (
	"fmt"
	"sort"

	"fastgr/internal/grid"
	"fastgr/internal/route"
)

// Metrics is the Table X row for one router's guides.
type Metrics struct {
	Wirelength int // track wirelength including detour overhead, G-cell units
	Vias       int // via edges including track-access stubs
	Shorts     int // overlap area that no track assignment can resolve
	Spacing    int // adjacent-track parallel-run violations
}

// interval is one net's contiguous wire run inside a panel, spanning edge
// positions [lo, hi] inclusive.
type interval struct {
	net    int
	lo, hi int
	track  int
}

// panelKey identifies a routing panel: a (layer, row) pair for horizontal
// layers or (layer, column) for vertical ones.
type panelKey struct {
	layer int
	line  int
}

// ValidateRoutes checks every route against the grid before evaluation:
// each edge ID must name an edge of g. A route's geometry was checked when
// it was built (route.Builder), but a route built for another design — or
// handed over with the wrong grid — would index past g's capacity arrays,
// so it is rejected here with the net and the edge named rather than panic
// deep inside assignPanel.
func ValidateRoutes(g *grid.Graph, routes []*route.NetRoute) error {
	for _, r := range routes {
		if r == nil {
			continue
		}
		for _, e := range r.Edges() {
			if int(e) >= g.NumEdges() {
				return fmt.Errorf("dr: net %d: edge %d outside the %d edges of a %dx%dx%d grid",
					r.NetID, e, g.NumEdges(), g.W, g.H, g.L)
			}
		}
	}
	return nil
}

// EvaluateChecked is Evaluate behind the ValidateRoutes gate — the entry
// point for routes that crossed a serialization boundary.
func EvaluateChecked(g *grid.Graph, routes []*route.NetRoute) (Metrics, error) {
	if err := ValidateRoutes(g, routes); err != nil {
		return Metrics{}, err
	}
	return Evaluate(g, routes), nil
}

// Evaluate runs track assignment under the given routes (indexed however the
// caller likes; nil entries are skipped) and returns the detailed metrics.
func Evaluate(g *grid.Graph, routes []*route.NetRoute) Metrics {
	panels := collectPanels(g, routes)

	var m Metrics
	keys := make([]panelKey, 0, len(panels))
	for k := range panels {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].layer != keys[j].layer {
			return keys[i].layer < keys[j].layer
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		pm := assignPanel(g, k, panels[k])
		m.Wirelength += pm.Wirelength
		m.Shorts += pm.Shorts
		m.Spacing += pm.Spacing
		m.Vias += pm.Vias
	}
	// Base vias: the guides' via stacks, plus the per-interval track-access
	// stubs added in assignPanel.
	for _, r := range routes {
		if r != nil {
			m.Vias += r.ViaCount(g)
		}
	}
	return m
}

// collectPanels cuts the routes into per-panel interval lists: each
// maximal wire run of a route's sealed edge list — distinct edges, so
// overlapping tree edges of one net occupy one track — is one interval.
func collectPanels(g *grid.Graph, routes []*route.NetRoute) map[panelKey][]interval {
	panels := make(map[panelKey][]interval)
	var runs []grid.Run
	for _, r := range routes {
		if r == nil {
			continue
		}
		runs = g.AppendRuns(runs[:0], r.Edges())
		for _, run := range runs {
			if run.Lo != run.Hi {
				continue // via stack
			}
			k, lo, hi := panelKey{run.Lo, run.A.Y}, run.A.X, run.B.X
			if g.Dir(run.Lo) == grid.Vertical {
				k, lo, hi = panelKey{run.Lo, run.A.X}, run.A.Y, run.B.Y
			}
			panels[k] = append(panels[k], interval{net: r.NetID, lo: lo, hi: hi - 1})
		}
	}
	return panels
}

// assignPanel greedily colors the panel's intervals onto tracks (best-fit by
// free position) and scores the outcome.
func assignPanel(g *grid.Graph, k panelKey, ivs []interval) Metrics {
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].lo != ivs[j].lo {
			return ivs[i].lo < ivs[j].lo
		}
		return ivs[i].net < ivs[j].net
	})

	capAt := func(pos int) int {
		if g.Dir(k.layer) == grid.Horizontal {
			return g.WireCap(k.layer, pos, k.line)
		}
		return g.WireCap(k.layer, k.line, pos)
	}

	// Track count: the panel's maximum capacity; narrower (blocked) spots
	// are handled by the per-position load check below.
	maxT := 0
	for _, iv := range ivs {
		for p := iv.lo; p <= iv.hi; p++ {
			if c := capAt(p); c > maxT {
				maxT = c
			}
		}
	}

	var m Metrics
	// Best-fit greedy interval coloring.
	freeAt := make([]int, max(maxT, 1))
	for i := range freeAt {
		freeAt[i] = -1 << 30
	}
	for i := range ivs {
		iv := &ivs[i]
		best := -1
		for t, f := range freeAt {
			if f <= iv.lo && (best < 0 || f > freeAt[best]) {
				best = t
			}
		}
		if best < 0 {
			// No free track: overlap with the earliest-freeing one.
			best = 0
			for t := range freeAt {
				if freeAt[t] < freeAt[best] {
					best = t
				}
			}
			overlap := freeAt[best] - iv.lo
			if overlap > iv.hi-iv.lo+1 {
				overlap = iv.hi - iv.lo + 1
			}
			m.Shorts += overlap
			// The detour a detailed router would try first: leave the panel
			// and re-enter, costing extra wirelength and vias.
			m.Wirelength += 2 * overlap
			m.Vias += 2
		}
		iv.track = best
		freeAt[best] = iv.hi + 2 // +1 end, +1 same-track spacing gap
		m.Wirelength += iv.hi - iv.lo + 1
		m.Vias++ // track-access stub
	}

	// Per-position load vs. (possibly blocked) capacity: residual shorts.
	loads := make(map[int]int)
	for _, iv := range ivs {
		for p := iv.lo; p <= iv.hi; p++ {
			loads[p]++
		}
	}
	for p, load := range loads {
		if c := capAt(p); load > c {
			m.Shorts += load - c
		}
	}

	// Spacing: long parallel runs on adjacent tracks. One violation charged
	// per 8 cells of adjacency, the granularity a rule checker flags at.
	for i := 0; i < len(ivs); i++ {
		for j := i + 1; j < len(ivs); j++ {
			if abs(ivs[i].track-ivs[j].track) != 1 {
				continue
			}
			lo := max(ivs[i].lo, ivs[j].lo)
			hi := min(ivs[i].hi, ivs[j].hi)
			if run := hi - lo + 1; run >= 8 {
				m.Spacing += run / 8
			}
		}
	}
	return m
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
