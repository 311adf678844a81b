package shard

import (
	"fastgr/internal/geom"
	"fastgr/internal/stt"
)

// Crossing is one grid edge where a net's canonical path steps from one
// leaf into an adjacent one — the deterministic halo point the fragments
// are cut at. A and B are adjacent G-cells in different leaves, in the
// order the splitting walk discovered them.
type Crossing struct {
	A, B geom.Point
}

// Fragment is the portion of one net that lies inside one leaf: one or more
// Steiner trees (the leaf may hold several disconnected pieces of the net).
type Fragment struct {
	Leaf  int
	Trees []*stt.Tree
}

// Split is the decomposition of one boundary net across leaves.
type Split struct {
	NetID     int
	Fragments []Fragment // ascending leaf ordinal
	Crossings []Crossing // discovery order, deduplicated
}

// leafBuilder accumulates one leaf's chain endpoints and chain edges in
// insertion order (maps only deduplicate; iteration never ranges over them).
type leafBuilder struct {
	nodes   []geom.Point
	nodeIdx map[geom.Point]int
	edges   [][2]int
	edgeSet map[[2]int]bool
}

func (b *leafBuilder) node(p geom.Point) int {
	if i, ok := b.nodeIdx[p]; ok {
		return i
	}
	i := len(b.nodes)
	b.nodes = append(b.nodes, p)
	b.nodeIdx[p] = i
	return i
}

func (b *leafBuilder) edge(a, c int) {
	if a == c {
		return
	}
	k := [2]int{geom.Min(a, c), geom.Max(a, c)}
	if !b.edgeSet[k] {
		b.edgeSet[k] = true
		b.edges = append(b.edges, k)
	}
}

// SplitTree cuts a boundary net's Steiner tree at the leaf boundaries its
// canonical paths cross. Each tree edge is walked along its horizontal-first
// L-path; every maximal same-leaf run of cells becomes a chain registered in
// that leaf, and every step between leaves becomes a Crossing. Per leaf, the
// chains' connected components are rebuilt into Steiner trees whose chain
// endpoints inside a cut carry no pins (pseudo terminals). The result is a
// pure function of (plan, tree): it never depends on shard count, worker
// count, or grid state.
//
// The router no longer calls SplitTree: boundary nets route whole, after
// the leaves. It stays for cmd/e2ebench, which still times it.
func SplitTree(p *Plan, t *stt.Tree) *Split {
	s := &Split{NetID: t.NetID}

	pinLayers := make(map[geom.Point][]int32)
	for u := 0; u < t.Len(); u++ {
		if t.IsPin(u) {
			pinLayers[t.Pos(u)] = append(pinLayers[t.Pos(u)], t.PinLayers(u)...)
		}
	}

	builders := make(map[int]*leafBuilder)
	var leafOrder []int
	builderFor := func(leaf int) *leafBuilder {
		if b, ok := builders[leaf]; ok {
			return b
		}
		b := &leafBuilder{nodeIdx: make(map[geom.Point]int), edgeSet: make(map[[2]int]bool)}
		builders[leaf] = b
		leafOrder = append(leafOrder, leaf)
		return b
	}
	crossSeen := make(map[[2]geom.Point]bool)

	walk := func(c, q geom.Point) {
		cells := lPathCells(c, q)
		chainStart := 0
		leafPrev := p.LeafContaining(cells[0])
		for i := 1; i < len(cells); i++ {
			leaf := p.LeafContaining(cells[i])
			if leaf == leafPrev {
				continue
			}
			b := builderFor(leafPrev)
			b.edge(b.node(cells[chainStart]), b.node(cells[i-1]))
			key := [2]geom.Point{cells[i-1], cells[i]}
			if cells[i].X < cells[i-1].X || cells[i].Y < cells[i-1].Y {
				key = [2]geom.Point{cells[i], cells[i-1]}
			}
			if !crossSeen[key] {
				crossSeen[key] = true
				s.Crossings = append(s.Crossings, Crossing{A: cells[i-1], B: cells[i]})
			}
			chainStart, leafPrev = i, leaf
		}
		b := builderFor(leafPrev)
		b.edge(b.node(cells[chainStart]), b.node(cells[len(cells)-1]))
	}
	for u := 0; u < t.Len(); u++ {
		if par := t.Parent(u); par >= 0 {
			walk(t.Pos(u), t.Pos(par))
		}
	}
	if t.Len() == 1 {
		// A degenerate single-node tree registers its lone position so the
		// fragment set is never empty.
		b := builderFor(p.LeafContaining(t.Pos(0)))
		b.node(t.Pos(0))
	}

	// Emit fragments in ascending leaf order; within a leaf, connected
	// components of the chain graph in node-insertion order.
	leaves := append([]int(nil), leafOrder...)
	for i := 1; i < len(leaves); i++ {
		for j := i; j > 0 && leaves[j] < leaves[j-1]; j-- {
			leaves[j], leaves[j-1] = leaves[j-1], leaves[j]
		}
	}
	for _, leaf := range leaves {
		b := builders[leaf]
		frag := Fragment{Leaf: leaf}
		adj := make([][]int, len(b.nodes))
		for _, e := range b.edges {
			adj[e[0]] = append(adj[e[0]], e[1])
			adj[e[1]] = append(adj[e[1]], e[0])
		}
		visited := make([]bool, len(b.nodes))
		for start := 0; start < len(b.nodes); start++ {
			if visited[start] {
				continue
			}
			comp := []int{start}
			visited[start] = true
			for qi := 0; qi < len(comp); qi++ {
				for _, nb := range adj[comp[qi]] {
					if !visited[nb] {
						visited[nb] = true
						comp = append(comp, nb)
					}
				}
			}
			frag.Trees = append(frag.Trees, buildFragTree(t.NetID, b, adj, comp, pinLayers))
		}
		s.Fragments = append(s.Fragments, frag)
	}
	return s
}

// buildFragTree assembles one connected component into a rooted Steiner
// tree. The root is the component's first pin-carrying node in insertion
// order, else its first node; parent/child links come from a BFS over the
// chain edges, visiting neighbors in edge-insertion order.
func buildFragTree(netID int, b *leafBuilder, adj [][]int, comp []int, pinLayers map[geom.Point][]int32) *stt.Tree {
	local := make(map[int]int32, len(comp))
	pos := make([]geom.Point, len(comp))
	parent := make([]int32, len(comp))
	var pinNode, pinLayer []int32
	root := int32(-1)
	for j, ni := range comp {
		local[ni] = int32(j)
		pos[j] = b.nodes[ni]
		parent[j] = -1
		for _, l := range pinLayers[pos[j]] {
			pinNode = append(pinNode, int32(j))
			pinLayer = append(pinLayer, l)
		}
		if root < 0 && len(pinLayers[pos[j]]) > 0 {
			root = int32(j)
		}
	}
	root = max(root, 0)
	visited := make([]bool, len(comp))
	queue := []int32{root}
	visited[root] = true
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, nb := range adj[comp[u]] {
			v := local[nb]
			if !visited[v] {
				visited[v] = true
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return stt.New(netID, pos, parent, queue, pinNode, pinLayer)
}

// lPathCells lists the cells of the horizontal-first L-path from a to b in
// walk order: the x run at a's row, then the y run at b's column. The turn
// cell appears once.
func lPathCells(a, b geom.Point) []geom.Point {
	cells := make([]geom.Point, 0, geom.ManhattanDist(a, b)+1)
	dx := 1
	if b.X < a.X {
		dx = -1
	}
	for x := a.X; x != b.X; x += dx {
		cells = append(cells, geom.Point{X: x, Y: a.Y})
	}
	cells = append(cells, geom.Point{X: b.X, Y: a.Y})
	dy := 1
	if b.Y < a.Y {
		dy = -1
	}
	for y := a.Y; y != b.Y; y += dy {
		if y != a.Y {
			cells = append(cells, geom.Point{X: b.X, Y: y})
		}
	}
	if b.Y != a.Y {
		cells = append(cells, geom.Point{X: b.X, Y: b.Y})
	}
	return cells
}
