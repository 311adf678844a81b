// Package route defines the routed-net representation shared by pattern and
// maze routing — the sealed list of grid edges a net uses — along with the
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

// NetRoute is the routed geometry of one multi-pin net, held as the one
// thing every consumer needs: its distinct grid edges, as an ascending
// grid.EdgeID list with the wire edges first. A Builder seals the list when
// the route is made and nothing changes it after; overlapping pieces of
// different tree edges (common near Steiner points) count once, matching
// how a real router's net occupies tracks. Straight runs and via stacks are
// derived from the list (grid.AppendRuns), never stored beside it.
type NetRoute struct {
	NetID int

	edges     []grid.EdgeID
	wires     int // edges[:wires] are wire edges
	committed bool
}

// Edges returns the route's sealed edge list: distinct, ascending, wire
// edges first. The list belongs to the route; callers must not modify it.
func (r *NetRoute) Edges() []grid.EdgeID { return r.edges }

// Builder collects one net's geometry as grid edges and seals it into a
// NetRoute. Every piece is checked against the grid as it is added, so a
// route that exists is well-formed. Reset binds it to a grid and a net; one
// goroutine reuses a Builder net after net.
type Builder struct {
	g     *grid.Graph
	net   int
	edges []grid.EdgeID
}

// Reset starts a new route for net netID on g (or on any grid of the same
// dimensions: edge IDs depend on nothing else).
func (b *Builder) Reset(g *grid.Graph, netID int) {
	b.g, b.net, b.edges = g, netID, b.edges[:0]
}

// Seg adds the wire edges of the straight run a-b on layer l; a == b adds
// nothing. A layer outside [1, L], an end off the grid or a run across the
// layer's direction panics, naming the net and the coordinates.
func (b *Builder) Seg(l int, a, c geom.Point) {
	g := b.g
	ok := l >= 1 && l <= g.L && g.InBounds(a.X, a.Y) && g.InBounds(c.X, c.Y)
	if ok && g.Dir(l) == grid.Horizontal {
		ok = a.Y == c.Y
	} else if ok {
		ok = a.X == c.X
	}
	if !ok {
		b.badSeg(l, a, c)
	}
	b.edges = g.AppendSegEdges(b.edges, l, a, c)
}

// badSeg panics with what is wrong with the run a-c on layer l. The
// diagnosis lives out of line: formatting it inside Seg grows the frame of
// every producer's innermost call, and the pattern kernel under fault
// containment measurably pays for that stack.
func (b *Builder) badSeg(l int, a, c geom.Point) {
	g := b.g
	if l < 1 || l > g.L {
		panic(fmt.Sprintf("route: net %d: segment %v-%v layer %d outside [1,%d]", b.net, a, c, l, g.L))
	}
	for _, p := range [2]geom.Point{a, c} {
		if !g.InBounds(p.X, p.Y) {
			panic(fmt.Sprintf("route: net %d: segment endpoint (%d,%d) layer %d outside %dx%d grid",
				b.net, p.X, p.Y, l, g.W, g.H))
		}
	}
	if g.Dir(l) == grid.Horizontal {
		panic(fmt.Sprintf("route: net %d: segment %v-%v not row-aligned on horizontal layer %d", b.net, a, c, l))
	}
	panic(fmt.Sprintf("route: net %d: segment %v-%v not column-aligned on vertical layer %d", b.net, a, c, l))
}

// Via adds the via edges of the stack at (x, y) joining layers lo <= hi;
// lo == hi adds nothing. A cell off the grid or a span outside [1, L] or
// inverted panics, naming the net and the coordinates.
func (b *Builder) Via(x, y, lo, hi int) {
	g := b.g
	if !g.InBounds(x, y) || lo < 1 || lo > hi || hi > g.L {
		b.badVia(x, y, lo, hi)
	}
	b.edges = g.AppendViaEdges(b.edges, x, y, lo, hi)
}

// badVia panics with what is wrong with the stack at (x, y) over lo..hi,
// out of line for the same reason as badSeg.
func (b *Builder) badVia(x, y, lo, hi int) {
	g := b.g
	if !g.InBounds(x, y) {
		panic(fmt.Sprintf("route: net %d: via (%d,%d) outside %dx%d grid", b.net, x, y, g.W, g.H))
	}
	panic(fmt.Sprintf("route: net %d: via (%d,%d) layer span [%d,%d] invalid for %d layers",
		b.net, x, y, lo, hi, g.L))
}

// AddRoute adds every edge of a sealed route (a fragment being merged).
func (b *Builder) AddRoute(r *NetRoute) { b.edges = append(b.edges, r.edges...) }

// Build seals the collected edges — sorted, duplicates dropped — into a new
// route and empties the builder for the next one.
func (b *Builder) Build() *NetRoute {
	slices.Sort(b.edges)
	edges := slices.Clone(slices.Compact(b.edges))
	wires, _ := slices.BinarySearch(edges, b.g.FirstViaEdge())
	b.edges = b.edges[:0]
	return &NetRoute{NetID: b.net, edges: edges, wires: wires}
}

// Committed reports whether the route currently holds grid demand.
func (r *NetRoute) Committed() bool { return r.committed }

// Commit adds one unit of demand for every distinct wire and via edge the
// route uses. Committing an already-committed route panics: that is a
// rip-up/reroute bookkeeping bug.
func (r *NetRoute) Commit(g *grid.Graph) {
	if r.committed {
		panic(fmt.Sprintf("route: net %d committed twice", r.NetID))
	}
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
	return g.AnyEdgeOverflow(r.edges)
}

// Cost prices the route's maximal runs at the grid's current demand — the
// common currency for comparing routes across the pattern and maze routers
// (the cross-check suites sum it the same way).
func (r *NetRoute) Cost(g *grid.Graph) float64 {
	total := 0.0
	for _, run := range g.AppendRuns(nil, r.edges) {
		if run.Lo == run.Hi {
			total += g.SegCost(run.Lo, run.A, run.B)
		} else {
			total += g.ViaStackCost(run.A.X, run.A.Y, run.Lo, run.Hi)
		}
	}
	return total
}

// Wirelength returns the number of distinct wire edges the route uses.
func (r *NetRoute) Wirelength(g *grid.Graph) int { return r.wires }

// ViaCount returns the number of distinct via edges the route uses.
func (r *NetRoute) ViaCount(g *grid.Graph) int { return len(r.edges) - r.wires }

// Validate checks that the routed geometry is connected and reaches every
// pin of the net at its pin layer. pins is the list of (position, layer)
// terminals, e.g. from the design net.
func (r *NetRoute) Validate(g *grid.Graph, pins []geom.Point3) error {
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
	for _, e := range r.edges {
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
