package route

import (
	"math/rand"
	"slices"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
)

func stitchGrid(t *testing.T) *grid.Graph {
	t.Helper()
	d := &design.Design{
		Name:          "stitchtest",
		GridW:         16,
		GridH:         16,
		NumLayers:     4,
		LayerCapacity: []int{0, 8, 8, 8},
		ViaCapacity:   8,
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return grid.NewFromDesign(d)
}

// TestStitchFragmentsBridgesCut stitches two fragment routes separated by
// one crossing edge and checks the merged route is a single connected net
// reaching both pins.
func TestStitchFragmentsBridgesCut(t *testing.T) {
	g := stitchGrid(t)
	pins := []geom.Point3{
		{X: 2, Y: 5, Layer: 3},
		{X: 13, Y: 5, Layer: 3},
	}
	// Layer 3 is horizontal; each fragment carries its half of the row.
	left := build(g, 1, func(b *Builder) { b.Seg(3, geom.Point{X: 2, Y: 5}, geom.Point{X: 7, Y: 5}) })
	right := build(g, 1, func(b *Builder) { b.Seg(3, geom.Point{X: 8, Y: 5}, geom.Point{X: 13, Y: 5}) })

	nr := StitchFragments(g, 1, pins, []*NetRoute{left, right},
		[]Crossing{{A: geom.Point{X: 7, Y: 5}, B: geom.Point{X: 8, Y: 5}}})
	if nr.NetID != 1 {
		t.Fatalf("stitched route carries net ID %d", nr.NetID)
	}
	if nr.Committed() {
		t.Fatal("stitched route must come back uncommitted")
	}
	if err := nr.Validate(g, pins); err != nil {
		t.Fatalf("stitched route invalid: %v", err)
	}
	// The fragments sit on layer 3 at both crossing endpoints, so the
	// cheapest bridge is the bare layer-3 edge — no vias.
	nr.Commit(g)
	if got := nr.ViaCount(g); got != 0 {
		t.Errorf("same-layer stitch added %d vias, want 0", got)
	}
	if got := nr.Wirelength(g); got != 11 {
		t.Errorf("stitched wirelength %d, want 11", got)
	}
}

// TestStitchFragmentsClimbsLayers puts the two fragments on different
// layers and checks the stitch inserts the via stacks needed to connect
// the crossing edge to both sides.
func TestStitchFragmentsClimbsLayers(t *testing.T) {
	g := stitchGrid(t)
	pins := []geom.Point3{
		{X: 4, Y: 8, Layer: 1},
		{X: 11, Y: 9, Layer: 2},
	}
	// Left fragment on horizontal layer 1; right fragment reaches its pin
	// via a vertical layer-2 hop (the crossing is horizontal, so the
	// bridge itself must pick layer 1 or 3 and via down/over).
	left := build(g, 2, func(b *Builder) { b.Seg(1, geom.Point{X: 4, Y: 8}, geom.Point{X: 7, Y: 8}) })
	right := build(g, 2, func(b *Builder) {
		b.Seg(1, geom.Point{X: 8, Y: 8}, geom.Point{X: 11, Y: 8})
		b.Via(11, 8, 1, 2)
		b.Seg(2, geom.Point{X: 11, Y: 8}, geom.Point{X: 11, Y: 9})
	})

	nr := StitchFragments(g, 2, pins, []*NetRoute{left, right},
		[]Crossing{{A: geom.Point{X: 7, Y: 8}, B: geom.Point{X: 8, Y: 8}}})
	if err := nr.Validate(g, pins); err != nil {
		t.Fatalf("stitched route invalid: %v", err)
	}
}

// TestStitchFragmentsDeterministic stitches the same inputs twice against
// the same grid state and expects identical geometry — the stitcher must
// be a pure function of (grid state, fragments, crossings).
func TestStitchFragmentsDeterministic(t *testing.T) {
	stitch := func() *NetRoute {
		g := stitchGrid(t)
		pins := []geom.Point3{
			{X: 1, Y: 2, Layer: 3},
			{X: 14, Y: 13, Layer: 3},
		}
		a := build(g, 3, func(b *Builder) { b.Seg(3, geom.Point{X: 1, Y: 2}, geom.Point{X: 7, Y: 2}) })
		b := build(g, 3, func(b *Builder) {
			b.Seg(3, geom.Point{X: 8, Y: 2}, geom.Point{X: 14, Y: 2})
			b.Via(14, 2, 3, 4)
			b.Seg(4, geom.Point{X: 14, Y: 2}, geom.Point{X: 14, Y: 13})
			b.Via(14, 13, 3, 4)
		})
		return StitchFragments(g, 3, pins, []*NetRoute{a, b},
			[]Crossing{{A: geom.Point{X: 7, Y: 2}, B: geom.Point{X: 8, Y: 2}}})
	}
	r1, r2 := stitch(), stitch()
	if !slices.Equal(r1.Edges(), r2.Edges()) {
		t.Fatalf("stitched edges differ:\n%v\nvs\n%v", r1.Edges(), r2.Edges())
	}
}

// lowestLayerAtSegs is lowestLayerAt as it walked segments and via stacks
// before routes became edge lists: a wire piece touches every cell from A
// to B on its layer, a via stack touches its lowest layer. Zero-length
// pieces never reached a route (AddSeg and AddVia dropped them).
func lowestLayerAtSegs(pieces []grid.Run, pins []geom.Point3, pos geom.Point) int {
	best := 0
	touch := func(l int) {
		if best == 0 || l < best {
			best = l
		}
	}
	for _, p := range pieces {
		if p.Lo == p.Hi && p.A == p.B {
			continue
		}
		if p.Lo != p.Hi {
			if p.A == pos {
				touch(p.Lo)
			}
		} else if p.A.Y == p.B.Y && pos.Y == p.A.Y &&
			pos.X >= geom.Min(p.A.X, p.B.X) && pos.X <= geom.Max(p.A.X, p.B.X) {
			touch(p.Lo)
		} else if p.A.X == p.B.X && pos.X == p.A.X &&
			pos.Y >= geom.Min(p.A.Y, p.B.Y) && pos.Y <= geom.Max(p.A.Y, p.B.Y) {
			touch(p.Lo)
		}
	}
	for _, pin := range pins {
		if pin.X == pos.X && pin.Y == pos.Y {
			touch(pin.Layer)
		}
	}
	return best
}

// TestLowestLayerAtMatchesSegmentWalk: on random colliding geometry the
// lowest layer found among edge ends is the one the segment walk found, at
// every cell of the grid.
func TestLowestLayerAtMatchesSegmentWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, L := range oracleLayers {
		g := layeredGrid(L)
		for trial := 0; trial < 60; trial++ {
			pieces := randomPieces(rng, g)
			var pins []geom.Point3
			for i := rng.Intn(3); i > 0; i-- {
				pins = append(pins, geom.Point3{X: rng.Intn(g.W), Y: rng.Intn(g.H), Layer: 1 + rng.Intn(L)})
			}
			edges := buildPieces(g, trial, pieces).Edges()
			for y := 0; y < g.H; y++ {
				for x := 0; x < g.W; x++ {
					pos := geom.Point{X: x, Y: y}
					if got, want := lowestLayerAt(g, edges, pins, pos), lowestLayerAtSegs(pieces, pins, pos); got != want {
						t.Fatalf("L=%d trial %d at %v: lowest layer %d, segment walk %d", L, trial, pos, got, want)
					}
				}
			}
		}
	}
}
