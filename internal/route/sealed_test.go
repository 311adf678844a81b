package route

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
)

// oracleLayers are the layer counts the oracle tests build grids with.
var oracleLayers = []int{2, 5, 9}

// layeredGrid is an 11x7 grid with L layers; the unequal sides keep row and
// column arithmetic apart.
func layeredGrid(L int) *grid.Graph {
	caps := make([]int, L)
	for i := range caps {
		caps[i] = 10
	}
	return grid.NewFromDesign(&design.Design{
		Name: "layers", GridW: 11, GridH: 7, NumLayers: L,
		LayerCapacity: caps, ViaCapacity: 8,
	})
}

// randomPieces draws geometry whose pieces deliberately collide: wires
// (Lo == Hi, ends in either order) on a few rows and columns so they
// overlap and abut across line ends, via stacks (Lo <= Hi) on a few cells
// so they repeat, and zero-length pieces of both kinds.
func randomPieces(rng *rand.Rand, g *grid.Graph) []grid.Run {
	var pieces []grid.Run
	for n := rng.Intn(16); n > 0; n-- {
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

// buildPieces seals pieces into net id's route through the Builder.
func buildPieces(g *grid.Graph, id int, pieces []grid.Run) *NetRoute {
	return build(g, id, func(b *Builder) {
		for _, p := range pieces {
			if p.Lo == p.Hi {
				b.Seg(p.Lo, p.A, p.B)
			} else {
				b.Via(p.A.X, p.A.Y, p.Lo, p.Hi)
			}
		}
	})
}

// The map-based flattening the sealed edge list replaced, kept as the
// oracle: distinct wire and via edges of the pieces, in first-insertion
// order.
type wireKey struct{ layer, x, y int }
type viaKey struct{ x, y, l int }

func canonicalRef(g *grid.Graph, pieces []grid.Run) ([]wireKey, []viaKey) {
	wires := make(map[wireKey]struct{})
	vias := make(map[viaKey]struct{})
	var wk []wireKey
	var vk []viaKey
	addWire := func(k wireKey) {
		if _, dup := wires[k]; !dup {
			wires[k] = struct{}{}
			wk = append(wk, k)
		}
	}
	for _, p := range pieces {
		if p.Lo != p.Hi {
			for l := p.Lo; l < p.Hi; l++ {
				k := viaKey{p.A.X, p.A.Y, l}
				if _, dup := vias[k]; !dup {
					vias[k] = struct{}{}
					vk = append(vk, k)
				}
			}
		} else if g.Dir(p.Lo) == grid.Horizontal {
			for x := geom.Min(p.A.X, p.B.X); x < geom.Max(p.A.X, p.B.X); x++ {
				addWire(wireKey{p.Lo, x, p.A.Y})
			}
		} else {
			for y := geom.Min(p.A.Y, p.B.Y); y < geom.Max(p.A.Y, p.B.Y); y++ {
				addWire(wireKey{p.Lo, p.A.X, y})
			}
		}
	}
	return wk, vk
}

// refRuns joins the reference edge sets into maximal runs without edge
// IDs: a wire run starts at an edge whose predecessor along the layer is
// missing, a via stack at an edge with none below it.
func refRuns(g *grid.Graph, wk []wireKey, vk []viaKey) []grid.Run {
	wires := make(map[wireKey]bool)
	for _, k := range wk {
		wires[k] = true
	}
	vias := make(map[viaKey]bool)
	for _, k := range vk {
		vias[k] = true
	}
	var runs []grid.Run
	for _, k := range wk {
		dx, dy := 1, 0
		if g.Dir(k.layer) == grid.Vertical {
			dx, dy = 0, 1
		}
		if wires[wireKey{k.layer, k.x - dx, k.y - dy}] {
			continue
		}
		n := 1
		for wires[wireKey{k.layer, k.x + n*dx, k.y + n*dy}] {
			n++
		}
		runs = append(runs, grid.Run{A: geom.Point{X: k.x, Y: k.y}, B: geom.Point{X: k.x + n*dx, Y: k.y + n*dy}, Lo: k.layer, Hi: k.layer})
	}
	for _, k := range vk {
		if vias[viaKey{k.x, k.y, k.l - 1}] {
			continue
		}
		hi := k.l + 1
		for vias[viaKey{k.x, k.y, hi}] {
			hi++
		}
		p := geom.Point{X: k.x, Y: k.y}
		runs = append(runs, grid.Run{A: p, B: p, Lo: k.l, Hi: hi})
	}
	return runs
}

func compareRuns(a, b grid.Run) int {
	return cmp.Or(cmp.Compare(a.Lo, b.Lo), cmp.Compare(a.Hi, b.Hi),
		cmp.Compare(a.A.Y, b.A.Y), cmp.Compare(a.A.X, b.A.X))
}

// TestRunsMatchReference: on random colliding geometry at 2, 5 and 9
// layers, AppendRuns spells the sealed list as exactly the maximal runs the
// reference joins from its edge sets, wire runs before via stacks.
func TestRunsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, L := range oracleLayers {
		g := layeredGrid(L)
		for trial := 0; trial < 300; trial++ {
			pieces := randomPieces(rng, g)
			got := g.AppendRuns(nil, buildPieces(g, trial, pieces).Edges())
			wk, vk := canonicalRef(g, pieces)
			want := refRuns(g, wk, vk)
			for i := 1; i < len(got); i++ {
				if got[i-1].Lo != got[i-1].Hi && got[i].Lo == got[i].Hi {
					t.Fatalf("L=%d trial %d: wire run %+v after via stack %+v", L, trial, got[i], got[i-1])
				}
			}
			slices.SortFunc(got, compareRuns)
			slices.SortFunc(want, compareRuns)
			if !slices.Equal(got, want) {
				t.Fatalf("L=%d trial %d: runs\n%+v\nreference\n%+v", L, trial, got, want)
			}
		}
	}
}

// demandOf snapshots every demand counter of the grid.
func demandOf(g *grid.Graph) []int {
	var out []int
	for l := 1; l <= g.L; l++ {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				if g.HasWireEdge(l, x, y) {
					out = append(out, g.WireDem(l, x, y))
				}
				if l < g.L {
					out = append(out, g.ViaDem(x, y, l))
				}
			}
		}
	}
	return out
}

// refOverflow is HasOverflow over the reference edge sets.
func refOverflow(g *grid.Graph, wk []wireKey, vk []viaKey) bool {
	for _, k := range wk {
		if g.WireDem(k.layer, k.x, k.y) > g.WireCap(k.layer, k.x, k.y) {
			return true
		}
	}
	for _, k := range vk {
		if g.ViaDem(k.x, k.y, k.l) > g.ViaCap(k.l) {
			return true
		}
	}
	return false
}

// TestSealedEdgeListMatchesReference: on random colliding geometry the
// list the Builder seals names exactly the reference's distinct edges, every
// query agrees with the reference as built, committed and uncommitted, and
// commit → uncommit → commit leaves the grid exactly as one commit does.
func TestSealedEdgeListMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const trials = 300
	overflowed := 0
	for trial := 0; trial < trials; trial++ {
		g := testGrid()
		// Background demand so some edges sit at or over capacity.
		for i := 0; i < 40; i++ {
			y, x := rng.Intn(4), rng.Intn(g.W-1)
			g.AddSegDemand(3, geom.Point{X: x, Y: y}, geom.Point{X: x + 1, Y: y}, rng.Intn(12))
			g.AddViaStackDemand(rng.Intn(3), rng.Intn(3), 1, g.L, rng.Intn(4))
		}
		pieces := randomPieces(rng, g)
		r := buildPieces(g, trial, pieces)
		wk, vk := canonicalRef(g, pieces)

		// The same set of edges, as IDs.
		var want []grid.EdgeID
		for _, k := range wk {
			a, b := geom.Point{X: k.x, Y: k.y}, geom.Point{X: k.x + 1, Y: k.y}
			if g.Dir(k.layer) == grid.Vertical {
				b = geom.Point{X: k.x, Y: k.y + 1}
			}
			want = g.AppendSegEdges(want, k.layer, a, b)
		}
		for _, k := range vk {
			want = g.AppendViaEdges(want, k.x, k.y, k.l, k.l+1)
		}
		slices.Sort(want)

		check := func(when string) {
			t.Helper()
			if got := r.Edges(); !slices.Equal(got, want) || r.wires != len(wk) {
				t.Fatalf("trial %d %s: edge list %v (%d wires), want %v (%d wires)", trial, when, got, r.wires, want, len(wk))
			}
			if r.Wirelength(g) != len(wk) || r.ViaCount(g) != len(vk) {
				t.Fatalf("trial %d %s: Wirelength/ViaCount = %d/%d, want %d/%d",
					trial, when, r.Wirelength(g), r.ViaCount(g), len(wk), len(vk))
			}
			if got, want := r.HasOverflow(g), refOverflow(g, wk, vk); got != want {
				t.Fatalf("trial %d %s: HasOverflow = %v, want %v", trial, when, got, want)
			}
		}

		check("built")
		if r.HasOverflow(g) {
			overflowed++
		}
		empty := demandOf(g)
		r.Commit(g)
		once := demandOf(g)
		check("committed")
		for i := range once {
			if d := once[i] - empty[i]; d != 0 && d != 1 {
				t.Fatalf("trial %d: commit moved a demand counter by %d", trial, d)
			}
		}
		r.Uncommit(g)
		if !slices.Equal(demandOf(g), empty) {
			t.Fatalf("trial %d: uncommit did not restore the grid", trial)
		}
		if r.Committed() {
			t.Fatalf("trial %d: committed after Uncommit", trial)
		}
		check("uncommitted")

		// The sealed list is grid-independent: recommit on a second grid
		// of the same design, then back on the first.
		g2 := testGrid()
		r.Commit(g2)
		w2, v2 := g2.TotalDemand()
		if w2 != len(wk) || v2 != len(vk) {
			t.Fatalf("trial %d: second grid demand %d/%d, want %d/%d", trial, w2, v2, len(wk), len(vk))
		}
		r.Uncommit(g2)
		r.Commit(g)
		if !slices.Equal(demandOf(g), once) {
			t.Fatalf("trial %d: commit → uncommit → commit differs from one commit", trial)
		}
	}
	if overflowed == 0 || overflowed == trials {
		t.Fatalf("%d of %d trials overflowed: the HasOverflow check saw one outcome only", overflowed, trials)
	}
}

// TestEdgeEndsRoundTrip: EdgeEnds inverts the ID of every edge kind.
func TestEdgeEndsRoundTrip(t *testing.T) {
	g := testGrid()
	for l := 1; l <= g.L; l++ {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				if g.HasWireEdge(l, x, y) {
					to := geom.Point{X: x + 1, Y: y}
					if g.Dir(l) == grid.Vertical {
						to = geom.Point{X: x, Y: y + 1}
					}
					e := g.AppendSegEdges(nil, l, geom.Point{X: x, Y: y}, to)[0]
					a, b := g.EdgeEnds(e)
					if a != (geom.Point3{X: x, Y: y, Layer: l}) || b != (geom.Point3{X: to.X, Y: to.Y, Layer: l}) {
						t.Fatalf("wire (%d,%d,%d): EdgeEnds = %v %v", l, x, y, a, b)
					}
					if e >= g.FirstViaEdge() {
						t.Fatalf("wire edge id %d not below FirstViaEdge %d", e, g.FirstViaEdge())
					}
				}
				if l < g.L {
					e := g.AppendViaEdges(nil, x, y, l, l+1)[0]
					a, b := g.EdgeEnds(e)
					if a != (geom.Point3{X: x, Y: y, Layer: l}) || b != (geom.Point3{X: x, Y: y, Layer: l + 1}) {
						t.Fatalf("via (%d,%d,%d): EdgeEnds = %v %v", x, y, l, a, b)
					}
					if e < g.FirstViaEdge() {
						t.Fatalf("via edge id %d below FirstViaEdge %d", e, g.FirstViaEdge())
					}
				}
			}
		}
	}
}
