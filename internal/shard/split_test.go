package shard

import (
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/stt"
)

// TestSplitTreeInvariants splits trees that deliberately straddle the
// cuts and checks the decomposition invariants: every fragment lies
// wholly inside its leaf, fragments come in ascending leaf order, every
// crossing joins adjacent cells in different leaves, and no pin is lost.
func TestSplitTreeInvariants(t *testing.T) {
	d := testDesign(64, 64)
	p := BuildPlan(d, 4)
	if p.NumLeaves() < 2 {
		t.Fatal("partition degenerate; test exercises nothing")
	}

	nets := []*design.Net{
		{ID: 0, Name: "diag", Pins: []design.Pin{
			{Pos: geom.Point{X: 2, Y: 2}, Layer: 1},
			{Pos: geom.Point{X: 61, Y: 61}, Layer: 2},
		}},
		{ID: 1, Name: "cross", Pins: []design.Pin{
			{Pos: geom.Point{X: 2, Y: 31}, Layer: 1},
			{Pos: geom.Point{X: 61, Y: 31}, Layer: 1},
			{Pos: geom.Point{X: 31, Y: 2}, Layer: 1},
			{Pos: geom.Point{X: 31, Y: 61}, Layer: 1},
		}},
		{ID: 2, Name: "corner", Pins: []design.Pin{
			{Pos: geom.Point{X: 0, Y: 63}, Layer: 1},
			{Pos: geom.Point{X: 63, Y: 0}, Layer: 1},
			{Pos: geom.Point{X: 63, Y: 63}, Layer: 1},
		}},
	}
	for _, n := range nets {
		tree := stt.Build(n)
		if p.LeafOf(tree.BBox()) >= 0 {
			t.Fatalf("net %s does not straddle a cut; pick wider pins", n.Name)
		}
		s := SplitTree(p, tree)
		if s.NetID != n.ID {
			t.Errorf("net %s: split carries net ID %d", n.Name, s.NetID)
		}
		if len(s.Fragments) < 2 || len(s.Crossings) == 0 {
			t.Fatalf("net %s: expected a real decomposition, got %d fragments, %d crossings",
				n.Name, len(s.Fragments), len(s.Crossings))
		}
		prev := -1
		for _, f := range s.Fragments {
			if f.Leaf <= prev {
				t.Errorf("net %s: fragments out of leaf order (%d after %d)", n.Name, f.Leaf, prev)
			}
			prev = f.Leaf
			leafRect := p.Leaf(f.Leaf)
			if len(f.Trees) == 0 {
				t.Errorf("net %s: leaf %d fragment holds no trees", n.Name, f.Leaf)
			}
			for _, ft := range f.Trees {
				if !leafRect.ContainsRect(ft.BBox()) {
					t.Errorf("net %s: fragment tree bbox %v escapes leaf %v", n.Name, ft.BBox(), leafRect)
				}
				for i := 0; i < ft.Len(); i++ {
					if ft.Parent(i) < 0 && i != ft.Root {
						t.Errorf("net %s: fragment node %d disconnected from root", n.Name, i)
					}
				}
			}
		}
		for _, c := range s.Crossings {
			if geom.ManhattanDist(c.A, c.B) != 1 {
				t.Errorf("net %s: crossing %v-%v is not one grid step", n.Name, c.A, c.B)
			}
			if p.LeafContaining(c.A) == p.LeafContaining(c.B) {
				t.Errorf("net %s: crossing %v-%v stays inside one leaf", n.Name, c.A, c.B)
			}
		}
		// Every pin position of the original tree must survive, with its
		// layers, in exactly the fragment of its own leaf.
		for i := 0; i < tree.Len(); i++ {
			if !tree.IsPin(i) {
				continue
			}
			pos := tree.Pos(i)
			found := false
			for _, f := range s.Fragments {
				if f.Leaf != p.LeafContaining(pos) {
					continue
				}
				for _, ft := range f.Trees {
					for j := 0; j < ft.Len(); j++ {
						if ft.Pos(j) == pos && ft.IsPin(j) {
							found = true
						}
					}
				}
			}
			if !found {
				t.Errorf("net %s: pin at %v lost in the split", n.Name, pos)
			}
		}
	}
}

// TestSplitTreeIntraDegenerate covers the degenerate shapes: a net whose
// tree is a single cell still yields one fragment holding its position.
func TestSplitTreeIntraDegenerate(t *testing.T) {
	d := testDesign(64, 64)
	p := BuildPlan(d, 4)
	n := &design.Net{ID: 7, Name: "dot", Pins: []design.Pin{
		{Pos: geom.Point{X: 5, Y: 5}, Layer: 1},
		{Pos: geom.Point{X: 5, Y: 5}, Layer: 2},
	}}
	s := SplitTree(p, stt.Build(n))
	if len(s.Fragments) != 1 || len(s.Crossings) != 0 {
		t.Fatalf("single-cell net: got %d fragments, %d crossings", len(s.Fragments), len(s.Crossings))
	}
	ft := s.Fragments[0].Trees[0]
	if ft.Len() != 1 || ft.Pos(0) != (geom.Point{X: 5, Y: 5}) || !ft.IsPin(0) {
		t.Fatalf("single-cell fragment malformed: %d nodes, root at %v", ft.Len(), ft.Pos(0))
	}
}
