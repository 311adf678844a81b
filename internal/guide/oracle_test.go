package guide

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/route"
)

// The cell walk guides were built from before routes became edge lists:
// every cell of every wire segment, both ends included, and every layer of
// every via stack. Zero-length pieces never reached a route (AddSeg and
// AddVia dropped them). It is the oracle boxesOf and Covers are held to.
func segCells(pieces []grid.Run) []uint64 {
	var keys []uint64
	for _, p := range pieces {
		switch {
		case p.Lo == p.Hi && p.A == p.B:
		case p.Lo != p.Hi:
			for l := p.Lo; l <= p.Hi; l++ {
				keys = append(keys, cellKey(l, p.A.X, p.A.Y))
			}
		case p.A.Y == p.B.Y:
			for x := geom.Min(p.A.X, p.B.X); x <= geom.Max(p.A.X, p.B.X); x++ {
				keys = append(keys, cellKey(p.Lo, x, p.A.Y))
			}
		default:
			for y := geom.Min(p.A.Y, p.B.Y); y <= geom.Max(p.A.Y, p.B.Y); y++ {
				keys = append(keys, cellKey(p.Lo, p.A.X, y))
			}
		}
	}
	return keys
}

// inBoxes is the linear box scan Covers used to do.
func inBoxes(boxes []Box, key uint64) bool {
	const mask = 1<<cellBits - 1
	l, y, x := int(key>>(2*cellBits)), int(key>>cellBits&mask), int(key&mask)
	for _, b := range boxes {
		if b.Layer == l && b.Rect.Contains(geom.Point{X: x, Y: y}) {
			return true
		}
	}
	return false
}

// oracleGrid is an 11x7 grid with L layers.
func oracleGrid(L int) *grid.Graph {
	caps := make([]int, L)
	for i := range caps {
		caps[i] = 10
	}
	return grid.NewFromDesign(&design.Design{
		Name: "oracle", GridW: 11, GridH: 7, NumLayers: L,
		LayerCapacity: caps, ViaCapacity: 8,
	})
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

func buildPieces(g *grid.Graph, id int, pieces []grid.Run) *route.NetRoute {
	var b route.Builder
	b.Reset(g, id)
	for _, p := range pieces {
		if p.Lo == p.Hi {
			b.Seg(p.Lo, p.A, p.B)
		} else {
			b.Via(p.A.X, p.A.Y, p.Lo, p.Hi)
		}
	}
	return b.Build()
}

// oneNet wraps a single route as a routed result.
func oneNet(g *grid.Graph, r *route.NetRoute) *core.Result {
	return &core.Result{
		Grid:   g,
		Design: &design.Design{Nets: []*design.Net{{ID: 0, Name: "n"}}},
		Routes: []*route.NetRoute{r},
	}
}

// TestBoxesMatchSegmentWalk: on random colliding geometry at 2, 5 and 9
// layers, the boxes built from a route's maximal runs are the boxes the
// segment walk built.
func TestBoxesMatchSegmentWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var c cells
	for _, L := range []int{2, 5, 9} {
		g := oracleGrid(L)
		for trial := 0; trial < 300; trial++ {
			pieces := randomPieces(rng, g)
			got := c.boxesOf(g, buildPieces(g, 0, pieces))
			want := boxesOfCells(segCells(pieces))
			if !slices.Equal(got, want) {
				t.Fatalf("L=%d trial %d: boxes\n%v\nsegment walk\n%v", L, trial, got, want)
			}
		}
	}
}

// TestCoversMatchesBoxScan: Covers refuses a guide exactly when the box
// scan finds a touched cell of the segment walk outside it — on the net's
// own guide, on one with a box dropped, one with a cell cut from a box and
// one whose boxes are split in two abutting halves.
func TestCoversMatchesBoxScan(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var c cells
	refused := 0
	for _, L := range []int{2, 5, 9} {
		g := oracleGrid(L)
		for trial := 0; trial < 300; trial++ {
			pieces := randomPieces(rng, g)
			r := buildPieces(g, 0, pieces)
			boxes := c.boxesOf(g, r)
			if len(boxes) == 0 {
				continue
			}
			k := rng.Intn(len(boxes))
			b := boxes[k]
			type variant struct {
				name  string
				boxes []Box
			}
			variants := []variant{{"own", boxes}, {"dropped", slices.Delete(slices.Clone(boxes), k, k+1)}}
			// Cut one cell out of box k, keeping what lies on either side.
			x, y := b.Rect.Lo.X+rng.Intn(b.Rect.Width()), b.Rect.Lo.Y+rng.Intn(b.Rect.Height())
			cut := slices.Delete(slices.Clone(boxes), k, k+1)
			for _, part := range []geom.Rect{
				{Lo: b.Rect.Lo, Hi: geom.Point{X: b.Rect.Hi.X, Y: y - 1}},
				{Lo: geom.Point{X: b.Rect.Lo.X, Y: y + 1}, Hi: b.Rect.Hi},
				{Lo: geom.Point{X: b.Rect.Lo.X, Y: y}, Hi: geom.Point{X: x - 1, Y: y}},
				{Lo: geom.Point{X: x + 1, Y: y}, Hi: geom.Point{X: b.Rect.Hi.X, Y: y}},
			} {
				if part.Lo.X <= part.Hi.X && part.Lo.Y <= part.Hi.Y {
					cut = append(cut, Box{Layer: b.Layer, Rect: part})
				}
			}
			variants = append(variants, variant{"cut", cut})
			var halves []Box
			for _, b := range boxes {
				mid := (b.Rect.Lo.X + b.Rect.Hi.X) / 2
				halves = append(halves,
					Box{Layer: b.Layer, Rect: geom.Rect{Lo: b.Rect.Lo, Hi: geom.Point{X: mid, Y: b.Rect.Hi.Y}}})
				if mid < b.Rect.Hi.X {
					halves = append(halves,
						Box{Layer: b.Layer, Rect: geom.Rect{Lo: geom.Point{X: mid + 1, Y: b.Rect.Lo.Y}, Hi: b.Rect.Hi}})
				}
			}
			slices.Reverse(halves)
			variants = append(variants, variant{"halves", halves})
			for _, v := range variants {
				uncovered := ""
				for _, key := range segCells(pieces) {
					if !inBoxes(v.boxes, key) {
						uncovered = fmt.Sprint(key)
						break
					}
				}
				err := Covers(oneNet(g, r), []Guide{{Net: "n", Boxes: v.boxes}})
				if (err != nil) != (uncovered != "") {
					t.Fatalf("L=%d trial %d %s guide: Covers says %v, box scan finds uncovered cell %q",
						L, trial, v.name, err, uncovered)
				}
				if err != nil {
					refused++
				}
			}
		}
	}
	if refused == 0 {
		t.Fatal("no mutated guide was refused")
	}
}

// TestCoversDetectsMissingInteriorCell: a guide that leaves out one cell
// in the middle of a long wire does not cover the route, although both of
// the wire's ends and every via cell are covered.
func TestCoversDetectsMissingInteriorCell(t *testing.T) {
	g := oracleGrid(4)
	var b route.Builder
	b.Reset(g, 0)
	b.Via(1, 2, 1, 3)
	b.Seg(3, geom.Point{X: 1, Y: 2}, geom.Point{X: 9, Y: 2})
	b.Via(9, 2, 1, 3)
	res := oneNet(g, b.Build())
	guides := FromResult(res)
	if err := Covers(res, guides); err != nil {
		t.Fatalf("own guide refused: %v", err)
	}
	var holed []Box
	for _, bx := range guides[0].Boxes {
		if bx.Layer == 3 && bx.Rect.Lo.X == 1 && bx.Rect.Hi.X == 9 {
			holed = append(holed,
				Box{Layer: 3, Rect: geom.Rect{Lo: geom.Point{X: 1, Y: 2}, Hi: geom.Point{X: 4, Y: 2}}},
				Box{Layer: 3, Rect: geom.Rect{Lo: geom.Point{X: 6, Y: 2}, Hi: geom.Point{X: 9, Y: 2}}})
			continue
		}
		holed = append(holed, bx)
	}
	if len(holed) != len(guides[0].Boxes)+1 {
		t.Fatalf("no layer-3 run (1..9,2) in guide %v", guides[0].Boxes)
	}
	err := Covers(res, []Guide{{Net: "n", Boxes: holed}})
	if err == nil {
		t.Fatal("guide missing cell (5,2) on layer 3 accepted")
	}
	if want := "cell (5,2) layer 3 uncovered"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
}
