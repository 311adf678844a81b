package stt

import (
	"math"
	"sort"

	"fastgr/internal/design"
	"fastgr/internal/geom"
)

// The reference builder: the pointer-per-node Steiner tree construction
// this package shipped before the flat layout, kept verbatim (identifiers
// prefixed with ref) as the oracle the flat trees must equal node for node.

// refNode is a vertex of a Steiner tree: a pin position or a Steiner point.
type refNode struct {
	ID        int
	Pos       geom.Point
	PinLayers []int // layers of the net's pins at this position; empty for Steiner points
	Parent    int   // -1 at the root
	Children  []int
}

// refIsPin reports whether the node carries at least one pin.
func (n *refNode) refIsPin() bool { return len(n.PinLayers) > 0 }

// refTree is a rooted rectilinear Steiner tree for one net.
type refTree struct {
	NetID int
	Nodes []refNode
	Root  int
}

// refBuild constructs the Steiner tree of a net, rooted at the node holding the
// net's first pin. Duplicate pin positions are merged with their layers
// collected on one node.
func refBuild(net *design.Net) *refTree {
	pos := make([]geom.Point, 0, len(net.Pins))
	layers := make(map[geom.Point][]int, len(net.Pins))
	for _, p := range net.Pins {
		if _, ok := layers[p.Pos]; !ok {
			pos = append(pos, p.Pos)
		}
		layers[p.Pos] = append(layers[p.Pos], p.Layer)
	}

	var adj [][]int
	if len(pos) <= exactThreshold {
		// Exact RSMT for the 2-4 pin nets that dominate netlists (the role
		// FLUTE's lookup tables play in CUGR).
		pos, adj = refExactRSMT(pos)
	} else {
		adj = refPrimMST(pos)
		pos, adj = refSteinerize(pos, adj)
	}

	t := &refTree{NetID: net.ID, Nodes: make([]refNode, len(pos))}
	for i, p := range pos {
		t.Nodes[i] = refNode{ID: i, Pos: p, PinLayers: layers[p], Parent: -1}
	}
	t.refRootAt(0, adj)
	return t
}

// refPrimMST returns the MST adjacency lists over pts (Manhattan metric).
// O(n^2), fine for net fan-outs.
func refPrimMST(pts []geom.Point) [][]int {
	n := len(pts)
	adj := make([][]int, n)
	if n <= 1 {
		return adj
	}
	inTree := make([]bool, n)
	dist := make([]int, n)
	from := make([]int, n)
	for i := range dist {
		dist[i] = math.MaxInt
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
			adj[best] = append(adj[best], from[best])
			adj[from[best]] = append(adj[from[best]], best)
		}
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := geom.ManhattanDist(pts[best], pts[i]); d < dist[i] {
					dist[i] = d
					from[i] = best
				}
			}
		}
	}
	return adj
}

func refMedian3(a, b, c int) int {
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

// refSteinerize greedily inserts median Steiner points: for a node u with
// neighbors v and w, the component-wise median s of (u,v,w) replaces the two
// direct edges with a star through s whenever that shortens total length.
func refSteinerize(pts []geom.Point, adj [][]int) ([]geom.Point, [][]int) {
	improved := true
	for pass := 0; improved && pass < 8; pass++ {
		improved = false
		for u := 0; u < len(pts); u++ {
			nbs := adj[u]
			if len(nbs) < 2 {
				continue
			}
			bestGain := 0
			bestV, bestW := -1, -1
			var bestS geom.Point
			for i := 0; i < len(nbs); i++ {
				for j := i + 1; j < len(nbs); j++ {
					v, w := nbs[i], nbs[j]
					s := geom.Point{
						X: refMedian3(pts[u].X, pts[v].X, pts[w].X),
						Y: refMedian3(pts[u].Y, pts[v].Y, pts[w].Y),
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
				sIdx := len(pts)
				pts = append(pts, bestS)
				adj = append(adj, nil)
				refRemoveEdge(adj, u, bestV)
				refRemoveEdge(adj, u, bestW)
				refAddEdge(adj, u, sIdx)
				refAddEdge(adj, sIdx, bestV)
				refAddEdge(adj, sIdx, bestW)
				improved = true
			}
		}
	}
	return pts, adj
}

func refAddEdge(adj [][]int, a, b int) {
	adj[a] = append(adj[a], b)
	adj[b] = append(adj[b], a)
}

func refRemoveEdge(adj [][]int, a, b int) {
	adj[a] = refRemoveFrom(adj[a], b)
	adj[b] = refRemoveFrom(adj[b], a)
}

func refRemoveFrom(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// refRootAt orients the adjacency structure into a rooted tree via iterative DFS.
func (t *refTree) refRootAt(root int, adj [][]int) {
	t.Root = root
	for i := range t.Nodes {
		t.Nodes[i].Parent = -1
		t.Nodes[i].Children = nil
	}
	visited := make([]bool, len(t.Nodes))
	stack := []int{root}
	visited[root] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !visited[v] {
				visited[v] = true
				t.Nodes[v].Parent = u
				t.Nodes[u].Children = append(t.Nodes[u].Children, v)
				stack = append(stack, v)
			}
		}
	}
}

// refShift performs congestion-aware edge shifting (the planning optimization
// of Fig. 5): each Steiner point may slide to a Hanan candidate of its
// neighbors when the estimated congestion cost of its incident edges drops
// without increasing tree wirelength.
func (t *refTree) refShift(est Estimator) {
	for pass := 0; pass < 2; pass++ {
		moved := false
		for i := range t.Nodes {
			n := &t.Nodes[i]
			if n.refIsPin() {
				continue
			}
			var nbs []int
			if n.Parent >= 0 {
				nbs = append(nbs, n.Parent)
			}
			nbs = append(nbs, n.Children...)
			if len(nbs) == 0 {
				continue
			}
			curWL, curCost := t.refStarCost(est, n.Pos, nbs)
			bestPos, bestCost := n.Pos, curCost
			for _, a := range nbs {
				for _, b := range nbs {
					cand := geom.Point{X: t.Nodes[a].Pos.X, Y: t.Nodes[b].Pos.Y}
					if cand == n.Pos {
						continue
					}
					wl, cost := t.refStarCost(est, cand, nbs)
					if wl <= curWL && cost < bestCost-1e-9 {
						bestPos, bestCost = cand, cost
					}
				}
			}
			if bestPos != n.Pos {
				n.Pos = bestPos
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}

// refStarCost evaluates the total wirelength and estimated congestion cost of
// connecting pos to each neighbor with its cheaper L path.
func (t *refTree) refStarCost(est Estimator, pos geom.Point, nbs []int) (wl int, cost float64) {
	for _, nb := range nbs {
		q := t.Nodes[nb].Pos
		wl += geom.ManhattanDist(pos, q)
		cost += est.LPathCost(pos, q)
	}
	return wl, cost
}

// refExactRSMT returns the points (pins first, chosen Steiner points appended)
// and MST adjacency of an optimal rectilinear Steiner tree. It assumes
// 2 <= len(pins) <= exactThreshold.
func refExactRSMT(pins []geom.Point) ([]geom.Point, [][]int) {
	hanan := refHananPoints(pins)
	maxSteiner := len(pins) - 2

	bestLen := -1
	var bestPts []geom.Point
	var bestAdj [][]int

	try := func(steiner []geom.Point) {
		pts := append(append([]geom.Point(nil), pins...), steiner...)
		adj := refPrimMST(pts)
		length := 0
		for u := range adj {
			for _, v := range adj[u] {
				if u < v {
					length += geom.ManhattanDist(pts[u], pts[v])
				}
			}
		}
		if bestLen < 0 || length < bestLen {
			bestLen = length
			bestPts, bestAdj = pts, adj
		}
	}

	try(nil)
	if maxSteiner >= 1 {
		for i := range hanan {
			try([]geom.Point{hanan[i]})
		}
	}
	if maxSteiner >= 2 {
		for i := range hanan {
			for j := i + 1; j < len(hanan); j++ {
				try([]geom.Point{hanan[i], hanan[j]})
			}
		}
	}
	return refPruneUselessSteiner(bestPts, bestAdj, len(pins))
}

// refHananPoints enumerates the Hanan grid of the pins minus the pins
// themselves, in deterministic order.
func refHananPoints(pins []geom.Point) []geom.Point {
	xs := map[int]bool{}
	ys := map[int]bool{}
	onPin := map[geom.Point]bool{}
	for _, p := range pins {
		xs[p.X] = true
		ys[p.Y] = true
		onPin[p] = true
	}
	var xv, yv []int
	for x := range xs {
		xv = append(xv, x)
	}
	for y := range ys {
		yv = append(yv, y)
	}
	sort.Ints(xv)
	sort.Ints(yv)
	var out []geom.Point
	for _, x := range xv {
		for _, y := range yv {
			p := geom.Point{X: x, Y: y}
			if !onPin[p] {
				out = append(out, p)
			}
		}
	}
	return out
}

// refPruneUselessSteiner removes Steiner points of degree <= 2: a degree-1
// Steiner leaf never survives an optimal tree, and a degree-2 point just
// splits an edge, constraining pattern routing for no benefit (contract it).
func refPruneUselessSteiner(pts []geom.Point, adj [][]int, numPins int) ([]geom.Point, [][]int) {
	for {
		victim := -1
		for i := numPins; i < len(pts); i++ {
			if len(adj[i]) <= 2 {
				victim = i
				break
			}
		}
		if victim < 0 {
			return pts, adj
		}
		nbs := append([]int(nil), adj[victim]...)
		for _, nb := range nbs {
			refRemoveEdge(adj, victim, nb)
		}
		if len(nbs) == 2 {
			refAddEdge(adj, nbs[0], nbs[1])
		}
		// Swap-remove the victim, fixing indices of the moved node.
		last := len(pts) - 1
		if victim != last {
			pts[victim] = pts[last]
			adj[victim] = adj[last]
			for _, nb := range adj[victim] {
				for k, x := range adj[nb] {
					if x == last {
						adj[nb][k] = victim
					}
				}
			}
		}
		pts = pts[:last]
		adj = adj[:last]
	}
}
