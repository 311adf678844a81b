// Package shard partitions the G-cell grid into rectangular regions for
// sharded routing — the partition-based parallelization GANGR argues is the
// path past a single monolithic cost field. A Plan is a recursive-bisection
// cut tree over pin density whose leaves are the atomic routing regions and
// the unit of parallel work: an executor slot claims one leaf at a time.
//
// Determinism contract. The cut tree is a pure function of the design and
// the maze margin — never of the shard count, the worker count, or any
// runtime state. Every per-leaf decision (net classification, fragment
// splitting, intra-leaf work order) derives from the leaves alone, which is
// what makes routed output invariant across shard and worker counts.
package shard

import (
	"fastgr/internal/design"
	"fastgr/internal/geom"
)

const (
	// MaxDepth bounds the bisection: at most 2^MaxDepth leaves.
	MaxDepth = 4
	// minLeafSideFloor is the smallest leaf edge regardless of margin.
	minLeafSideFloor = 8
)

// MinLeafSide is the smallest allowed leaf edge length for a given maze
// margin: a leaf must be able to contain a maze window inflated by the
// margin on both sides plus one interior cell.
func MinLeafSide(margin int) int {
	return geom.Max(minLeafSideFloor, 2*margin+2)
}

// node is one cut-tree vertex. Internal nodes carry their cut; leaves carry
// their ordinal in DFS (left-before-right) order.
type node struct {
	rect        geom.Rect
	left, right int // node ids; -1 on leaves
	leaf        int // leaf ordinal; -1 on internal nodes
}

// Plan is the cut tree plus its leaf list.
type Plan struct {
	W, H  int
	nodes []node
	root  int
	// leaves[i] is the node id of leaf ordinal i.
	leaves []int
}

// BuildPlan bisects the design's grid on pin density. margin is the maze
// window margin the router will use; it floors the leaf size so every
// intra-leaf maze window fits its leaf.
func BuildPlan(d *design.Design, margin int) *Plan {
	p := &Plan{W: d.GridW, H: d.GridH}
	minSide := MinLeafSide(margin)

	// Summed-area table over per-cell pin counts: sat[(y+1)*(W+1)+x+1] holds
	// the pin count of [0..x]×[0..y], so any rectangle sum is four reads.
	sat := make([]int64, (p.W+1)*(p.H+1))
	for _, n := range d.Nets {
		for _, pin := range n.Pins {
			if pin.Pos.X >= 0 && pin.Pos.X < p.W && pin.Pos.Y >= 0 && pin.Pos.Y < p.H {
				sat[(pin.Pos.Y+1)*(p.W+1)+pin.Pos.X+1]++
			}
		}
	}
	for y := 1; y <= p.H; y++ {
		row := y * (p.W + 1)
		prev := row - (p.W + 1)
		for x := 1; x <= p.W; x++ {
			sat[row+x] += sat[row+x-1] + sat[prev+x] - sat[prev+x-1]
		}
	}
	rectPins := func(r geom.Rect) int64 {
		w1 := p.W + 1
		return sat[(r.Hi.Y+1)*w1+r.Hi.X+1] - sat[(r.Hi.Y+1)*w1+r.Lo.X] -
			sat[r.Lo.Y*w1+r.Hi.X+1] + sat[r.Lo.Y*w1+r.Lo.X]
	}

	var build func(r geom.Rect, depth int) int
	build = func(r geom.Rect, depth int) int {
		id := len(p.nodes)
		p.nodes = append(p.nodes, node{rect: r, left: -1, right: -1, leaf: -1})
		if depth >= MaxDepth {
			return id
		}
		// Cut across the longer side; ties cut X (a vertical cut line).
		cutX := r.Width() >= r.Height()
		var lo, hi int
		if cutX {
			lo, hi = r.Lo.X, r.Hi.X
		} else {
			lo, hi = r.Lo.Y, r.Hi.Y
		}
		cutLo, cutHi := lo+minSide-1, hi-minSide
		if cutLo > cutHi {
			return id
		}
		cut := weightedMedian(r, cutX, lo, hi, rectPins)
		cut = geom.Clamp(cut, cutLo, cutHi)
		var a, b geom.Rect
		if cutX {
			a = geom.Rect{Lo: r.Lo, Hi: geom.Point{X: cut, Y: r.Hi.Y}}
			b = geom.Rect{Lo: geom.Point{X: cut + 1, Y: r.Lo.Y}, Hi: r.Hi}
		} else {
			a = geom.Rect{Lo: r.Lo, Hi: geom.Point{X: r.Hi.X, Y: cut}}
			b = geom.Rect{Lo: geom.Point{X: r.Lo.X, Y: cut + 1}, Hi: r.Hi}
		}
		left := build(a, depth+1)
		right := build(b, depth+1)
		p.nodes[id].left, p.nodes[id].right = left, right
		return id
	}
	p.root = build(geom.Rect{Hi: geom.Point{X: p.W - 1, Y: p.H - 1}}, 0)

	// Number the leaves in DFS order, left before right.
	var collect func(id int)
	collect = func(id int) {
		n := &p.nodes[id]
		if n.left < 0 {
			n.leaf = len(p.leaves)
			p.leaves = append(p.leaves, id)
			return
		}
		collect(n.left)
		collect(n.right)
	}
	collect(p.root)
	return p
}

// Whole returns the plan with no cuts: one leaf covering the whole w×h
// grid. Every net is intra-leaf under it, so nothing is split, stitched
// or reconciled; it needs no design, and builds no pin table.
func Whole(w, h int) *Plan {
	root := node{rect: geom.Rect{Hi: geom.Point{X: w - 1, Y: h - 1}}, left: -1, right: -1}
	return &Plan{W: w, H: h, nodes: []node{root}, leaves: []int{0}}
}

// weightedMedian returns the smallest coordinate c along the cut axis such
// that the pins of r at coordinates <= c reach half of r's total; the
// middle of the span when r holds no pins.
func weightedMedian(r geom.Rect, cutX bool, lo, hi int, rectPins func(geom.Rect) int64) int {
	total := rectPins(r)
	if total == 0 {
		return (lo + hi) / 2
	}
	half := (total + 1) / 2
	// Binary search on the prefix sum, which is monotone in c.
	c := lo
	for s, e := lo, hi; s <= e; {
		m := (s + e) / 2
		var pre geom.Rect
		if cutX {
			pre = geom.Rect{Lo: r.Lo, Hi: geom.Point{X: m, Y: r.Hi.Y}}
		} else {
			pre = geom.Rect{Lo: r.Lo, Hi: geom.Point{X: r.Hi.X, Y: m}}
		}
		if rectPins(pre) >= half {
			c = m
			e = m - 1
		} else {
			s = m + 1
		}
	}
	return c
}

// NumLeaves returns the number of atomic regions.
func (p *Plan) NumLeaves() int { return len(p.leaves) }

// Leaf returns the rectangle of leaf ordinal i.
func (p *Plan) Leaf(i int) geom.Rect { return p.nodes[p.leaves[i]].rect }

// LeafContaining returns the ordinal of the leaf holding pt. The cut tree
// tiles the grid, so every in-bounds point lies in exactly one leaf.
func (p *Plan) LeafContaining(pt geom.Point) int {
	id := p.root
	for p.nodes[id].left >= 0 {
		if p.nodes[p.nodes[id].left].rect.Contains(pt) {
			id = p.nodes[id].left
		} else {
			id = p.nodes[id].right
		}
	}
	return p.nodes[id].leaf
}
