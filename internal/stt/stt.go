// Package stt constructs rectilinear Steiner trees for multi-pin nets — the
// first step of the paper's pattern routing planning stage (Fig. 5) — and
// optimizes them with congestion-aware edge shifting. The tree's edges
// become the two-pin nets that pattern routing solves; its rooted structure
// defines the parent/child relations the dynamic program's bottom-children
// cost (eq. 2) depends on.
//
// Nets with at most four distinct pin positions — most of a netlist — get
// an exact rectilinear Steiner minimal tree by Hanan-grid enumeration
// (exact.go, the role FLUTE's lookup tables play in CUGR). Larger nets get
// Prim's MST over the distinct pin positions under the Manhattan metric
// followed by greedy Steinerization (median-point insertion), a standard
// FLUTE-class approximation; the contest-grade lookup tables are not
// reproducible offline, and the routers only consume the tree topology.
//
// A Tree is flat and pointer-free: one array of fixed-size node records and
// one shared int32 array holding every node's children and pin layers, so a
// tree is three allocations whatever its size.
package stt

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"fastgr/internal/design"
	"fastgr/internal/geom"
)

// node is one vertex of a Tree: a pin position or a Steiner point. Its
// children are idx[start:kidsEnd] and its pin layers idx[kidsEnd:pinsEnd],
// where start is the previous node's pinsEnd (0 for node 0).
type node struct {
	x, y    int32
	parent  int32 // -1 at the root
	kidsEnd int32
	pinsEnd int32
}

// Tree is a rooted rectilinear Steiner tree for one net. Nodes are numbered
// 0..Len()-1; the slices its accessors return alias the tree and are
// read-only.
type Tree struct {
	NetID int
	Root  int
	nodes []node
	idx   []int32 // per node: its children, then its pin layers
}

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.nodes) }

// Pos returns node u's position.
func (t *Tree) Pos(u int) geom.Point {
	return geom.Point{X: int(t.nodes[u].x), Y: int(t.nodes[u].y)}
}

// Parent returns node u's parent, -1 at the root.
func (t *Tree) Parent(u int) int { return int(t.nodes[u].parent) }

// Children returns node u's children in the order the tree was rooted.
func (t *Tree) Children(u int) []int32 {
	e := t.nodes[u].kidsEnd
	return t.idx[t.start(u):e:e]
}

// PinLayers returns the layers of the net's pins at node u, in pin order;
// empty for a Steiner point.
func (t *Tree) PinLayers(u int) []int32 {
	n := &t.nodes[u]
	return t.idx[n.kidsEnd:n.pinsEnd:n.pinsEnd]
}

// IsPin reports whether node u carries at least one pin.
func (t *Tree) IsPin(u int) bool { return t.nodes[u].pinsEnd > t.nodes[u].kidsEnd }

func (t *Tree) start(u int) int32 {
	if u == 0 {
		return 0
	}
	return t.nodes[u-1].pinsEnd
}

// New assembles a tree. pos[u] is node u's position and parent[u] its
// parent (-1 at the root). order lists every node once, the root first and
// each node after its parent; node u's children are the nodes whose parent
// is u, in their order in order. Pin i sits on node pinNode[i] at layer
// pinLayer[i]; node u's pin layers keep their order in pinLayer. The tree
// copies what it keeps, so the arguments may be scratch.
func New(netID int, pos []geom.Point, parent, order, pinNode, pinLayer []int32) *Tree {
	nodes := make([]node, len(pos))
	for u, p := range pos {
		nodes[u] = node{x: int32(p.X), y: int32(p.Y), parent: parent[u]}
	}
	// Count each node's children and pins, turn the counts into cursors at
	// the start of each run, then fill the runs in order; every cursor ends
	// at its run's end.
	for _, v := range order[1:] {
		nodes[parent[v]].kidsEnd++
	}
	for _, u := range pinNode {
		nodes[u].pinsEnd++
	}
	off := int32(0)
	for u := range nodes {
		n := &nodes[u]
		kids, pins := n.kidsEnd, n.pinsEnd
		n.kidsEnd, n.pinsEnd = off, off+kids
		off += kids + pins
	}
	idx := make([]int32, off)
	for _, v := range order[1:] {
		n := &nodes[parent[v]]
		idx[n.kidsEnd] = v
		n.kidsEnd++
	}
	for i, u := range pinNode {
		n := &nodes[u]
		idx[n.pinsEnd] = pinLayer[i]
		n.pinsEnd++
	}
	return &Tree{NetID: netID, Root: int(order[0]), nodes: nodes, idx: idx}
}

// Estimator supplies 2-D congestion estimates for edge shifting. It is
// satisfied by *grid.Estimator2D.
type Estimator interface {
	HSeg(y, x1, x2 int) float64
	VSeg(x, y1, y2 int) float64
	LPathCost(a, b geom.Point) float64
}

// builder is Build's scratch. Builders are pooled, so a build allocates
// only the tree it returns.
type builder struct {
	pos      []geom.Point // distinct pin positions in first-pin order, then Steiner points
	pinNode  []int32      // per net pin: the index of its position in pos
	pinLayer []int32
	adj      [][]int32 // undirected adjacency over pos

	// primMST and rootAt.
	dist   []int
	from   []int32
	seen   []bool
	parent []int32
	order  []int32
	stack  []int32
}

var builders = sync.Pool{New: func() any { return new(builder) }}

// Build constructs the Steiner tree of a net, rooted at the node holding the
// net's first pin. Duplicate pin positions are merged with their layers
// collected on one node.
func Build(net *design.Net) *Tree {
	b := builders.Get().(*builder)
	defer builders.Put(b)

	// Linear position lookup: quadratic in the distinct positions, as is
	// the Prim MST that follows.
	b.pos, b.pinNode, b.pinLayer = b.pos[:0], b.pinNode[:0], b.pinLayer[:0]
	for _, p := range net.Pins {
		at := slices.Index(b.pos, p.Pos)
		if at < 0 {
			at = len(b.pos)
			b.pos = append(b.pos, p.Pos)
		}
		b.pinNode = append(b.pinNode, int32(at))
		b.pinLayer = append(b.pinLayer, int32(p.Layer))
	}

	if len(b.pos) <= exactThreshold {
		// Exact RSMT for the 2-4 pin nets that dominate netlists (the role
		// FLUTE's lookup tables play in CUGR).
		b.exactRSMT()
	} else {
		b.primMST()
		b.steinerize()
	}
	b.rootAt(0)
	return New(net.ID, b.pos, b.parent, b.order, b.pinNode, b.pinLayer)
}

// resize sets the adjacency to n empty lists, reusing their storage.
func (b *builder) resize(n int) {
	if n > cap(b.adj) {
		b.adj = append(b.adj[:cap(b.adj)], make([][]int32, n-cap(b.adj))...)
	}
	b.adj = b.adj[:n]
	for i := range b.adj {
		b.adj[i] = b.adj[i][:0]
	}
}

// addNode appends a Steiner point with no edges and returns its index.
func (b *builder) addNode(p geom.Point) int32 {
	b.pos = append(b.pos, p)
	n := len(b.pos)
	if n > cap(b.adj) {
		b.adj = append(b.adj, nil)
	}
	b.adj = b.adj[:n]
	b.adj[n-1] = b.adj[n-1][:0]
	return int32(n - 1)
}

// grow returns s resized to n, reusing its storage when it is large enough.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// primMST sets the adjacency to the MST over pos (Manhattan metric), edges
// added in Prim order from node 0. O(n^2), fine for net fan-outs.
func (b *builder) primMST() {
	n := len(b.pos)
	b.resize(n)
	if n <= 1 {
		return
	}
	inTree := grow(b.seen, n)
	dist := grow(b.dist, n)
	from := grow(b.from, n)
	b.seen, b.dist, b.from = inTree, dist, from
	for i := range dist {
		inTree[i], dist[i] = false, math.MaxInt
	}
	dist[0] = 0
	from[0] = -1
	for k := 0; k < n; k++ {
		best, bestD := -1, math.MaxInt
		for i := 0; i < n; i++ {
			if !inTree[i] && dist[i] < bestD {
				best, bestD = i, dist[i]
			}
		}
		inTree[best] = true
		if from[best] >= 0 {
			b.addEdge(int32(best), from[best])
		}
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := geom.ManhattanDist(b.pos[best], b.pos[i]); d < dist[i] {
					dist[i] = d
					from[i] = int32(best)
				}
			}
		}
	}
}

func median3(a, b, c int) int {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// steinerize greedily inserts median Steiner points: for a node u with
// neighbors v and w, the component-wise median s of (u,v,w) replaces the two
// direct edges with a star through s whenever that shortens total length.
func (b *builder) steinerize() {
	improved := true
	for pass := 0; improved && pass < 8; pass++ {
		improved = false
		for u := 0; u < len(b.pos); u++ {
			nbs := b.adj[u]
			if len(nbs) < 2 {
				continue
			}
			pts := b.pos
			bestGain := 0
			bestV, bestW := int32(-1), int32(-1)
			var bestS geom.Point
			for i := 0; i < len(nbs); i++ {
				for j := i + 1; j < len(nbs); j++ {
					v, w := nbs[i], nbs[j]
					s := geom.Point{
						X: median3(pts[u].X, pts[v].X, pts[w].X),
						Y: median3(pts[u].Y, pts[v].Y, pts[w].Y),
					}
					if s == pts[u] || s == pts[v] || s == pts[w] {
						continue
					}
					gain := geom.ManhattanDist(pts[u], pts[v]) +
						geom.ManhattanDist(pts[u], pts[w]) -
						geom.ManhattanDist(pts[u], s) -
						geom.ManhattanDist(s, pts[v]) -
						geom.ManhattanDist(s, pts[w])
					if gain > bestGain {
						bestGain, bestV, bestW, bestS = gain, v, w, s
					}
				}
			}
			if bestGain > 0 {
				s := b.addNode(bestS)
				b.removeEdge(int32(u), bestV)
				b.removeEdge(int32(u), bestW)
				b.addEdge(int32(u), s)
				b.addEdge(s, bestV)
				b.addEdge(s, bestW)
				improved = true
			}
		}
	}
}

func (b *builder) addEdge(u, v int32) {
	b.adj[u] = append(b.adj[u], v)
	b.adj[v] = append(b.adj[v], u)
}

// removeEdge drops the edge from both lists, keeping their order.
func (b *builder) removeEdge(u, v int32) {
	b.adj[u] = removeFrom(b.adj[u], v)
	b.adj[v] = removeFrom(b.adj[v], u)
}

func removeFrom(s []int32, v int32) []int32 {
	if i := slices.Index(s, v); i >= 0 {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

// rootAt orients the adjacency into parents and an attachment order by an
// iterative DFS that claims a node when it is first seen.
func (b *builder) rootAt(root int32) {
	n := len(b.pos)
	b.parent = grow(b.parent, n)
	b.seen = grow(b.seen, n)
	for i := range b.parent {
		b.parent[i], b.seen[i] = -1, false
	}
	b.order = append(b.order[:0], root)
	b.stack = append(b.stack[:0], root)
	b.seen[root] = true
	for len(b.stack) > 0 {
		u := b.stack[len(b.stack)-1]
		b.stack = b.stack[:len(b.stack)-1]
		for _, v := range b.adj[u] {
			if !b.seen[v] {
				b.seen[v] = true
				b.parent[v] = u
				b.order = append(b.order, v)
				b.stack = append(b.stack, v)
			}
		}
	}
}

// WL returns the total rectilinear length of the tree's edges.
func (t *Tree) WL() int {
	total := 0
	for u := range t.nodes {
		if p := t.Parent(u); p >= 0 {
			total += geom.ManhattanDist(t.Pos(u), t.Pos(p))
		}
	}
	return total
}

// NumEdges returns the number of two-pin nets the tree decomposes into.
func (t *Tree) NumEdges() int { return len(t.nodes) - 1 }

// BBox returns the bounding box over all tree nodes.
func (t *Tree) BBox() geom.Rect {
	r := geom.NewRect(t.Pos(0), t.Pos(0))
	for u := 1; u < len(t.nodes); u++ {
		r = r.Extend(t.Pos(u))
	}
	return r
}

// Validate checks the rooted-tree invariants — exactly one root, every
// non-root reachable from the root through consistent parent/child links —
// and that the tree's pins, as (position, layer) pairs, are the net's pins
// exactly, counted with multiplicity.
func (t *Tree) Validate(net *design.Net) error {
	if t.Root < 0 || t.Root >= len(t.nodes) {
		return fmt.Errorf("stt: root %d out of range", t.Root)
	}
	if t.Parent(t.Root) != -1 {
		return fmt.Errorf("stt: root has a parent")
	}
	seen := make([]bool, len(t.nodes))
	stack := []int{t.Root}
	count := 0
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[u] {
			return fmt.Errorf("stt: node %d visited twice (cycle)", u)
		}
		seen[u] = true
		count++
		for _, c := range t.Children(u) {
			if c < 0 || int(c) >= len(t.nodes) {
				return fmt.Errorf("stt: child %d of %d out of range", c, u)
			}
			if t.Parent(int(c)) != u {
				return fmt.Errorf("stt: child %d of %d has parent %d", c, u, t.Parent(int(c)))
			}
			stack = append(stack, int(c))
		}
	}
	if count != len(t.nodes) {
		return fmt.Errorf("stt: %d of %d nodes reachable from root", count, len(t.nodes))
	}

	var have, want []geom.Point3
	for u := range t.nodes {
		p := t.Pos(u)
		for _, l := range t.PinLayers(u) {
			have = append(have, geom.Point3{X: p.X, Y: p.Y, Layer: int(l)})
		}
	}
	for _, p := range net.Pins {
		want = append(want, geom.Point3{X: p.Pos.X, Y: p.Pos.Y, Layer: p.Layer})
	}
	byXYL := func(a, b geom.Point3) int {
		return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y), cmp.Compare(a.Layer, b.Layer))
	}
	slices.SortFunc(have, byXYL)
	slices.SortFunc(want, byXYL)
	for i := 0; i < len(have) || i < len(want); i++ {
		switch {
		case i == len(have):
			return fmt.Errorf("stt: pin %v missing from tree", want[i])
		case i == len(want) || have[i] != want[i]:
			return fmt.Errorf("stt: tree pin %v is not the net's", have[i])
		}
	}
	return nil
}

// Shift performs congestion-aware edge shifting (the planning optimization
// of Fig. 5): each Steiner point may slide to a Hanan candidate of its
// neighbors when the estimated congestion cost of its incident edges drops
// without increasing tree wirelength.
func (t *Tree) Shift(est Estimator) {
	var buf [8]int32
	for pass := 0; pass < 2; pass++ {
		moved := false
		for u := range t.nodes {
			if t.IsPin(u) {
				continue
			}
			nbs := buf[:0]
			if p := t.nodes[u].parent; p >= 0 {
				nbs = append(nbs, p)
			}
			nbs = append(nbs, t.Children(u)...)
			if len(nbs) == 0 {
				continue
			}
			pos := t.Pos(u)
			curWL, curCost := t.starCost(est, pos, nbs)
			bestPos, bestCost := pos, curCost
			for _, a := range nbs {
				for _, b := range nbs {
					cand := geom.Point{X: int(t.nodes[a].x), Y: int(t.nodes[b].y)}
					if cand == pos {
						continue
					}
					wl, cost := t.starCost(est, cand, nbs)
					if wl <= curWL && cost < bestCost-1e-9 {
						bestPos, bestCost = cand, cost
					}
				}
			}
			if bestPos != pos {
				t.nodes[u].x, t.nodes[u].y = int32(bestPos.X), int32(bestPos.Y)
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}

// starCost evaluates the total wirelength and estimated congestion cost of
// connecting pos to each neighbor with its cheaper L path.
func (t *Tree) starCost(est Estimator, pos geom.Point, nbs []int32) (wl int, cost float64) {
	for _, nb := range nbs {
		q := t.Pos(int(nb))
		wl += geom.ManhattanDist(pos, q)
		cost += est.LPathCost(pos, q)
	}
	return wl, cost
}
