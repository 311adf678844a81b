package drcu

import (
	"maps"
	"math/rand"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/route"
)

// maskOfSegs is guideMask as it walked wire segments and via stacks before
// routes became edge lists: every G-cell of every segment, ends included,
// and every layer of every via stack, expanded to fine cells. Zero-length
// pieces never reached a route (AddSeg and AddVia dropped them).
func maskOfSegs(f *fineGraph, pieces []grid.Run, slack int) *mask {
	m := &mask{cells: make(map[int64]bool)}
	first := true
	for _, p := range pieces {
		if p.Lo == p.Hi && p.A == p.B {
			continue
		}
		span := geom.NewRect(p.A, p.B)
		for l := p.Lo; l <= p.Hi; l++ {
			for y := span.Lo.Y; y <= span.Hi.Y; y++ {
				for x := span.Lo.X; x <= span.Hi.X; x++ {
					r := geom.NewRect(
						geom.Point{X: max(0, x*Refine-slack), Y: max(0, y*Refine-slack)},
						geom.Point{X: min(f.w-1, (x+1)*Refine-1+slack), Y: min(f.h-1, (y+1)*Refine-1+slack)})
					for fy := r.Lo.Y; fy <= r.Hi.Y; fy++ {
						for fx := r.Lo.X; fx <= r.Hi.X; fx++ {
							m.cells[maskKey(fx, fy, l)] = true
						}
					}
					if first {
						m.bbox, first = r, false
					} else {
						m.bbox = m.bbox.Union(r)
					}
				}
			}
		}
	}
	return m
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

// TestMaskMatchesSegmentWalk: on random colliding geometry at 2, 5 and 9
// layers and guide slack 0 and 1, the fine mask built from a route's
// maximal runs has the cells and the box the segment walk gave it.
func TestMaskMatchesSegmentWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, L := range []int{2, 5, 9} {
		caps := make([]int, L)
		g := grid.NewFromDesign(&design.Design{
			Name: "oracle", GridW: 11, GridH: 7, NumLayers: L, LayerCapacity: caps,
		})
		f := newFineGraph(g, DefaultConfig())
		for trial := 0; trial < 200; trial++ {
			pieces := randomPieces(rng, g)
			var b route.Builder
			b.Reset(g, trial)
			for _, p := range pieces {
				if p.Lo == p.Hi {
					b.Seg(p.Lo, p.A, p.B)
				} else {
					b.Via(p.A.X, p.A.Y, p.Lo, p.Hi)
				}
			}
			r := b.Build()
			for slack := 0; slack <= 1; slack++ {
				got, want := guideMask(f, r, slack), maskOfSegs(f, pieces, slack)
				if !maps.Equal(got.cells, want.cells) || got.bbox != want.bbox {
					t.Fatalf("L=%d trial %d slack %d: mask of %d cells in %v, segment walk %d cells in %v",
						L, trial, slack, len(got.cells), got.bbox, len(want.cells), want.bbox)
				}
			}
		}
	}
}
