package dr

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/route"
)

// panelsOfSegs is collectPanels as it walked wire segments before routes
// became edge lists: each net's segments marked their edge positions in a
// per-panel set, and each set was cut into maximal runs. Via pieces and
// zero-length pieces add no wire edge.
func panelsOfSegs(g *grid.Graph, nets [][]grid.Run) map[panelKey][]interval {
	panels := make(map[panelKey][]interval)
	for net, pieces := range nets {
		occ := make(map[panelKey]map[int]bool)
		for _, p := range pieces {
			if p.Lo != p.Hi {
				continue
			}
			k, lo, hi := panelKey{p.Lo, p.A.Y}, min(p.A.X, p.B.X), max(p.A.X, p.B.X)
			if g.Dir(p.Lo) == grid.Vertical {
				k, lo, hi = panelKey{p.Lo, p.A.X}, min(p.A.Y, p.B.Y), max(p.A.Y, p.B.Y)
			}
			if occ[k] == nil {
				occ[k] = make(map[int]bool)
			}
			for pos := lo; pos < hi; pos++ {
				occ[k][pos] = true
			}
		}
		for k, set := range occ {
			var pos []int
			for p := range set {
				pos = append(pos, p)
			}
			sort.Ints(pos)
			for i := 0; i < len(pos); {
				j := i
				for j+1 < len(pos) && pos[j+1] == pos[j]+1 {
					j++
				}
				panels[k] = append(panels[k], interval{net: net, lo: pos[i], hi: pos[j]})
				i = j + 1
			}
		}
	}
	return panels
}

// randomPieces draws colliding geometry: wires (Lo == Hi, ends in either
// order) on a few rows and columns, via stacks repeated on a few cells,
// and zero-length pieces of both kinds.
func randomPieces(rng *rand.Rand, g *grid.Graph) []grid.Run {
	var pieces []grid.Run
	for n := 1 + rng.Intn(16); n > 0; n-- {
		l := 1 + rng.Intn(g.L)
		if rng.Intn(3) == 0 {
			l2 := 1 + rng.Intn(g.L)
			p := geom.Point{X: rng.Intn(3), Y: rng.Intn(3)}
			pieces = append(pieces, grid.Run{A: p, B: p, Lo: min(l, l2), Hi: max(l, l2)})
			continue
		}
		line := rng.Intn(4)
		a, b := geom.Point{X: rng.Intn(g.W), Y: line}, geom.Point{X: rng.Intn(g.W), Y: line}
		if g.Dir(l) == grid.Vertical {
			a, b = geom.Point{X: line, Y: rng.Intn(g.H)}, geom.Point{X: line, Y: rng.Intn(g.H)}
		}
		pieces = append(pieces, grid.Run{A: a, B: b, Lo: l, Hi: l})
	}
	return pieces
}

// TestPanelsMatchSegmentWalk: on random colliding geometry of two nets at
// 2, 5 and 9 layers, the panel intervals cut from the routes' maximal runs
// are the ones the segment walk cut from its position sets.
func TestPanelsMatchSegmentWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	byStart := func(a, b interval) int { return cmp.Or(cmp.Compare(a.net, b.net), cmp.Compare(a.lo, b.lo)) }
	for _, L := range []int{2, 5, 9} {
		caps := make([]int, L)
		g := grid.NewFromDesign(&design.Design{
			Name: "oracle", GridW: 11, GridH: 7, NumLayers: L, LayerCapacity: caps,
		})
		for trial := 0; trial < 300; trial++ {
			nets := [][]grid.Run{randomPieces(rng, g), randomPieces(rng, g)}
			var routes []*route.NetRoute
			for id, pieces := range nets {
				var b route.Builder
				b.Reset(g, id)
				for _, p := range pieces {
					if p.Lo == p.Hi {
						b.Seg(p.Lo, p.A, p.B)
					} else {
						b.Via(p.A.X, p.A.Y, p.Lo, p.Hi)
					}
				}
				routes = append(routes, b.Build())
			}
			got, want := collectPanels(g, routes), panelsOfSegs(g, nets)
			if len(got) != len(want) {
				t.Fatalf("L=%d trial %d: %d panels, segment walk %d", L, trial, len(got), len(want))
			}
			for k, ivs := range want {
				slices.SortFunc(ivs, byStart)
				slices.SortFunc(got[k], byStart)
				if !slices.Equal(got[k], ivs) {
					t.Fatalf("L=%d trial %d panel %v: intervals %v, segment walk %v", L, trial, k, got[k], ivs)
				}
			}
		}
	}
}
