package shard

import (
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/geom"
)

// testDesign builds a small design with pins clustered so the bisection
// has real density to follow.
func testDesign(w, h int) *design.Design {
	d := &design.Design{
		Name:          "shardtest",
		GridW:         w,
		GridH:         h,
		NumLayers:     3,
		LayerCapacity: []int{1, 8, 8},
		ViaCapacity:   8,
	}
	id := 0
	addNet := func(pts ...geom.Point) {
		n := &design.Net{ID: id, Name: "n"}
		for _, p := range pts {
			n.Pins = append(n.Pins, design.Pin{Pos: p, Layer: 1})
		}
		d.Nets = append(d.Nets, n)
		id++
	}
	for i := 0; i < 40; i++ {
		// A dense cluster near the origin and a sparse spread elsewhere.
		addNet(geom.Point{X: i % 7, Y: (i * 3) % 11},
			geom.Point{X: (i * 5) % w, Y: (i * 7) % h})
	}
	return d
}

// TestBuildPlanTiles checks the structural invariants of the cut tree: the
// leaves tile the grid exactly (every cell in exactly one leaf), and every
// leaf respects the minimum side length.
func TestBuildPlanTiles(t *testing.T) {
	for _, margin := range []int{0, 4, 9} {
		d := testDesign(64, 48)
		p := BuildPlan(d, margin)
		if p.NumLeaves() < 2 {
			t.Fatalf("margin %d: expected a real partition, got %d leaves", margin, p.NumLeaves())
		}
		minSide := MinLeafSide(margin)
		area := 0
		for i := 0; i < p.NumLeaves(); i++ {
			r := p.Leaf(i)
			if r.Width() < minSide || r.Height() < minSide {
				t.Errorf("margin %d: leaf %d %v smaller than min side %d", margin, i, r, minSide)
			}
			area += r.Area()
			for j := i + 1; j < p.NumLeaves(); j++ {
				if r.Overlaps(p.Leaf(j)) {
					t.Errorf("margin %d: leaves %d and %d overlap", margin, i, j)
				}
			}
		}
		if area != 64*48 {
			t.Errorf("margin %d: leaves cover %d cells, grid has %d", margin, area, 64*48)
		}
		for y := 0; y < 48; y += 5 {
			for x := 0; x < 64; x += 5 {
				pt := geom.Point{X: x, Y: y}
				leaf := p.LeafContaining(pt)
				if !p.Leaf(leaf).Contains(pt) {
					t.Fatalf("LeafContaining(%v) = %d, but leaf rect %v misses it", pt, leaf, p.Leaf(leaf))
				}
			}
		}
	}
}

// TestGroupsPartition checks that Groups(k) partitions the leaf ordinals
// into contiguous ascending ranges for every k, and that the leaf set
// itself — identity, order, rectangles — never depends on k. That
// independence is the heart of the shard-count-invariance contract.
// TestWholePlan: the one-leaf plan is the whole grid, contains every
// in-bounds rectangle and groups into its one leaf for every k.
func TestWholePlan(t *testing.T) {
	p := Whole(40, 30)
	full := geom.Rect{Hi: geom.Point{X: 39, Y: 29}}
	if p.NumLeaves() != 1 || p.Leaf(0) != full {
		t.Fatalf("Whole: %d leaves, leaf 0 = %v", p.NumLeaves(), p.Leaf(0))
	}
	if p.LeafOf(full) != 0 || p.LeafOf(geom.Rect{Lo: geom.Point{X: 5, Y: 7}, Hi: geom.Point{X: 6, Y: 8}}) != 0 {
		t.Fatal("Whole: an in-bounds rectangle is not intra-leaf")
	}
	for k := 0; k <= 3; k++ {
		if g := p.Groups(k); len(g) != 1 || len(g[0]) != 1 || g[0][0] != 0 {
			t.Fatalf("Groups(%d) = %v", k, g)
		}
	}
}

func TestGroupsPartition(t *testing.T) {
	d := testDesign(96, 96)
	p := BuildPlan(d, 4)
	for k := 1; k <= 2*p.NumLeaves(); k++ {
		groups := p.Groups(k)
		want := geom.Min(k, p.NumLeaves())
		if len(groups) != want {
			t.Fatalf("Groups(%d): got %d groups, want %d", k, len(groups), want)
		}
		next := 0
		for gi, g := range groups {
			if len(g) == 0 {
				t.Fatalf("Groups(%d): group %d empty", k, gi)
			}
			for _, leaf := range g {
				if leaf != next {
					t.Fatalf("Groups(%d): group %d holds leaf %d, want contiguous %d", k, gi, leaf, next)
				}
				next++
			}
		}
		if next != p.NumLeaves() {
			t.Fatalf("Groups(%d): covered %d leaves of %d", k, next, p.NumLeaves())
		}
	}
}

// TestPlanIsPureFunction rebuilds the plan and checks leaf-for-leaf
// equality: nothing about the partition may depend on runtime state.
func TestPlanIsPureFunction(t *testing.T) {
	a := BuildPlan(testDesign(80, 60), 4)
	b := BuildPlan(testDesign(80, 60), 4)
	if a.NumLeaves() != b.NumLeaves() {
		t.Fatalf("leaf counts differ: %d vs %d", a.NumLeaves(), b.NumLeaves())
	}
	for i := 0; i < a.NumLeaves(); i++ {
		if a.Leaf(i) != b.Leaf(i) {
			t.Fatalf("leaf %d differs: %v vs %v", i, a.Leaf(i), b.Leaf(i))
		}
	}
}
