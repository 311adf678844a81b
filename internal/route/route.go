// Package route defines the routed-net representation shared by pattern and
// maze routing — wire segments on layers plus via stacks — along with the
// multi-pin → two-pin decomposition and the DFS intra-net ordering of
// Section II-D, demand commit/uncommit against the grid, and connectivity
// validation.
package route

import (
	"fmt"
	"slices"

	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/stt"
)

// TwoPin is one two-pin net obtained from a Steiner tree edge, routed from
// the child node (the paper's source Ps) to the parent node (target Pt).
type TwoPin struct {
	Tree          *stt.Tree
	Child, Parent int // node ids in Tree
}

// Source returns the child endpoint position.
func (tp TwoPin) Source() geom.Point { return tp.Tree.Nodes[tp.Child].Pos }

// Target returns the parent endpoint position.
func (tp TwoPin) Target() geom.Point { return tp.Tree.Nodes[tp.Parent].Pos }

// BBox returns the two-pin net's bounding box.
func (tp TwoPin) BBox() geom.Rect { return geom.NewRect(tp.Source(), tp.Target()) }

// HPWL is the half-perimeter (here: Manhattan) length of the two-pin net,
// the measure the selection technique thresholds on.
func (tp TwoPin) HPWL() int { return geom.ManhattanDist(tp.Source(), tp.Target()) }

// Decompose appends the Steiner tree's two-pin nets to dst in intra-net
// execution order: the reverse of a DFS preorder from the root (Fig. 4),
// so every node's edge appears after the edges of all its descendants —
// exactly the bottom-up order the dynamic program requires.
func Decompose(dst []TwoPin, t *stt.Tree) []TwoPin {
	return appendReversePreorder(dst, t, t.Root)
}

// appendReversePreorder appends the edges of u's subtree, u's own last: the
// reverse of preorder(u) = u, preorder(c1), ..., preorder(ck) visits ck's
// subtree first.
func appendReversePreorder(dst []TwoPin, t *stt.Tree, u int) []TwoPin {
	cs := t.Nodes[u].Children
	for i := len(cs) - 1; i >= 0; i-- {
		dst = appendReversePreorder(dst, t, cs[i])
	}
	if p := t.Nodes[u].Parent; p >= 0 {
		dst = append(dst, TwoPin{Tree: t, Child: u, Parent: p})
	}
	return dst
}

// Seg is a straight wire on one layer between two aligned points.
type Seg struct {
	Layer int
	A, B  geom.Point
}

// Via is a via stack at one G-cell spanning layers [L1, L2] (normalized).
type Via struct {
	X, Y   int
	L1, L2 int
}

// Path is the routed geometry of one two-pin net (or one maze connection).
type Path struct {
	Segs []Seg
	Vias []Via
}

// AddSeg appends a wire segment, skipping zero-length ones.
func (p *Path) AddSeg(layer int, a, b geom.Point) {
	if a == b {
		return
	}
	p.Segs = append(p.Segs, Seg{Layer: layer, A: a, B: b})
}

// AddVia appends a via stack, skipping empty ones and normalizing layer order.
func (p *Path) AddVia(x, y, l1, l2 int) {
	if l1 == l2 {
		return
	}
	if l1 > l2 {
		l1, l2 = l2, l1
	}
	p.Vias = append(p.Vias, Via{X: x, Y: y, L1: l1, L2: l2})
}

// NetRoute is the complete routed geometry of one multi-pin net. Demand is
// committed per distinct grid edge: segments of different tree edges that
// overlap (common near Steiner points) count once, matching how a real
// router's net occupies tracks.
type NetRoute struct {
	NetID int
	// Paths is frozen from the first Commit on: every later query and
	// commit reads the edge list sealed then, not the geometry.
	Paths []Path

	// edges is the sealed edge list — the route's distinct grid edges as
	// ascending IDs, wire edges first — built by the first Commit and kept
	// across Uncommit; nil until then. wires counts its wire edges.
	edges     []grid.EdgeID
	wires     int
	committed bool
}

// edgeList returns the route's distinct wire and via edges, ascending, and
// how many of them are wires: the sealed list once there is one, otherwise
// a fresh flattening of Paths (sort + compact, a pure function of Paths).
func (r *NetRoute) edgeList(g *grid.Graph) ([]grid.EdgeID, int) {
	if r.edges != nil {
		return r.edges, r.wires
	}
	n := 0
	for _, p := range r.Paths {
		for _, s := range p.Segs {
			n += geom.ManhattanDist(s.A, s.B)
		}
		for _, v := range p.Vias {
			n += v.L2 - v.L1
		}
	}
	edges := make([]grid.EdgeID, 0, n)
	for _, p := range r.Paths {
		for _, s := range p.Segs {
			edges = g.AppendSegEdges(edges, s.Layer, s.A, s.B)
		}
		for _, v := range p.Vias {
			edges = g.AppendViaEdges(edges, v.X, v.Y, v.L1, v.L2)
		}
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	wires, _ := slices.BinarySearch(edges, g.FirstViaEdge())
	return edges, wires
}

// Committed reports whether the route currently holds grid demand.
func (r *NetRoute) Committed() bool { return r.committed }

// Commit adds one unit of demand for every distinct wire and via edge the
// route uses, sealing the edge list on first use. Committing an
// already-committed route panics: that is a rip-up/reroute bookkeeping bug.
func (r *NetRoute) Commit(g *grid.Graph) {
	if r.committed {
		panic(fmt.Sprintf("route: net %d committed twice", r.NetID))
	}
	r.edges, r.wires = r.edgeList(g)
	g.AddEdgeDemand(r.edges, 1)
	r.committed = true
}

// Uncommit releases the demand acquired by Commit (rip-up).
func (r *NetRoute) Uncommit(g *grid.Graph) {
	if !r.committed {
		panic(fmt.Sprintf("route: net %d uncommitted while not committed", r.NetID))
	}
	g.AddEdgeDemand(r.edges, -1)
	r.committed = false
}

// HasOverflow reports whether any wire or via edge the route occupies is
// currently over capacity — the criterion that sends a net into the rip-up
// and reroute iterations.
func (r *NetRoute) HasOverflow(g *grid.Graph) bool {
	edges, _ := r.edgeList(g)
	return g.AnyEdgeOverflow(edges)
}

// Cost evaluates the routed geometry element by element at the grid's
// current demand — the common currency for comparing routes across the
// pattern and maze routers (the cross-check suites sum it the same way).
func (r *NetRoute) Cost(g *grid.Graph) float64 {
	total := 0.0
	for _, p := range r.Paths {
		for _, s := range p.Segs {
			total += g.SegCost(s.Layer, s.A, s.B)
		}
		for _, v := range p.Vias {
			total += g.ViaStackCost(v.X, v.Y, v.L1, v.L2)
		}
	}
	return total
}

// Wirelength returns the number of distinct wire edges the route uses.
func (r *NetRoute) Wirelength(g *grid.Graph) int {
	_, wires := r.edgeList(g)
	return wires
}

// ViaCount returns the number of distinct via edges the route uses.
func (r *NetRoute) ViaCount(g *grid.Graph) int {
	edges, wires := r.edgeList(g)
	return len(edges) - wires
}

// Validate checks that the routed geometry is connected and reaches every
// pin of the net at its pin layer. pins is the list of (position, layer)
// terminals, e.g. from the design net.
func (r *NetRoute) Validate(g *grid.Graph, pins []geom.Point3) error {
	edges, _ := r.edgeList(g)
	// Union-find over 3-D grid nodes touched by the route.
	id := make(map[geom.Point3]int)
	parent := []int{}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	node := func(p geom.Point3) int {
		if i, ok := id[p]; ok {
			return i
		}
		i := len(parent)
		parent = append(parent, i)
		id[p] = i
		return i
	}
	for _, e := range edges {
		a, b := g.EdgeEnds(e)
		union(node(a), node(b))
	}
	if len(pins) == 0 {
		return nil
	}
	allSame := true
	for _, p := range pins[1:] {
		if p != pins[0] {
			allSame = false
			break
		}
	}
	if allSame {
		// A net whose pins coincide at one 3-D point is connected with no
		// geometry at all.
		return nil
	}
	first, ok := id[pins[0]]
	if !ok {
		return fmt.Errorf("route: pin %v not touched by route", pins[0])
	}
	for _, p := range pins[1:] {
		i, ok := id[p]
		if !ok {
			return fmt.Errorf("route: pin %v not touched by route", p)
		}
		if find(i) != find(first) {
			return fmt.Errorf("route: pin %v disconnected from pin %v", p, pins[0])
		}
	}
	return nil
}

// PinTerminals maps a Steiner tree's pin nodes to their 3-D terminals.
func PinTerminals(t *stt.Tree) []geom.Point3 {
	var pins []geom.Point3
	for i := range t.Nodes {
		for _, l := range t.Nodes[i].PinLayers {
			pins = append(pins, geom.Point3{X: t.Nodes[i].Pos.X, Y: t.Nodes[i].Pos.Y, Layer: l})
		}
	}
	return pins
}
