package route

import (
	"math/rand"
	"slices"
	"testing"

	"fastgr/internal/geom"
	"fastgr/internal/grid"
)

// The map-based flattening the sealed edge list replaced, kept as the
// oracle: distinct wire and via edges of Paths, in first-insertion order.
type wireKey struct{ layer, x, y int }
type viaKey struct{ x, y, l int }

func canonicalRef(g *grid.Graph, r *NetRoute) ([]wireKey, []viaKey) {
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
	for _, p := range r.Paths {
		for _, s := range p.Segs {
			if g.Dir(s.Layer) == grid.Horizontal {
				lo, hi := geom.Min(s.A.X, s.B.X), geom.Max(s.A.X, s.B.X)
				for x := lo; x < hi; x++ {
					addWire(wireKey{s.Layer, x, s.A.Y})
				}
			} else {
				lo, hi := geom.Min(s.A.Y, s.B.Y), geom.Max(s.A.Y, s.B.Y)
				for y := lo; y < hi; y++ {
					addWire(wireKey{s.Layer, s.A.X, y})
				}
			}
		}
		for _, v := range p.Vias {
			for l := v.L1; l < v.L2; l++ {
				k := viaKey{v.X, v.Y, l}
				if _, dup := vias[k]; !dup {
					vias[k] = struct{}{}
					vk = append(vk, k)
				}
			}
		}
	}
	return wk, vk
}

// randomRoute builds a route whose pieces deliberately collide: segments
// drawn from a few rows and columns so they overlap, via stacks drawn from
// a few cells so they repeat, and zero-length pieces appended raw (past the
// AddSeg/AddVia filters).
func randomRoute(rng *rand.Rand, g *grid.Graph, id int) *NetRoute {
	r := &NetRoute{NetID: id}
	for np := 1 + rng.Intn(4); np > 0; np-- {
		var p Path
		for ns := rng.Intn(6); ns > 0; ns-- {
			l := 1 + rng.Intn(g.L)
			line, a, b := rng.Intn(4), rng.Intn(g.W), rng.Intn(g.W)
			if g.Dir(l) == grid.Horizontal {
				p.Segs = append(p.Segs, Seg{Layer: l, A: geom.Point{X: a, Y: line}, B: geom.Point{X: b, Y: line}})
			} else {
				p.Segs = append(p.Segs, Seg{Layer: l, A: geom.Point{X: line, Y: a}, B: geom.Point{X: line, Y: b}})
			}
		}
		for nv := rng.Intn(5); nv > 0; nv-- {
			l1, l2 := 1+rng.Intn(g.L), 1+rng.Intn(g.L)
			p.Vias = append(p.Vias, Via{X: rng.Intn(3), Y: rng.Intn(3), L1: geom.Min(l1, l2), L2: geom.Max(l1, l2)})
		}
		r.Paths = append(r.Paths, p)
	}
	return r
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

// TestSealedEdgeListMatchesReference: on random colliding routes the sealed
// list names exactly the reference's distinct edges, every query agrees with
// the reference before and after sealing, and commit → uncommit → commit
// leaves the grid exactly as one commit does.
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
		r := randomRoute(rng, g, trial)
		wk, vk := canonicalRef(g, r)

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
			got, wires := r.edgeList(g)
			if !slices.Equal(got, want) || wires != len(wk) {
				t.Fatalf("trial %d %s: edge list %v (%d wires), want %v (%d wires)", trial, when, got, wires, want, len(wk))
			}
			if r.Wirelength(g) != len(wk) || r.ViaCount(g) != len(vk) {
				t.Fatalf("trial %d %s: Wirelength/ViaCount = %d/%d, want %d/%d",
					trial, when, r.Wirelength(g), r.ViaCount(g), len(wk), len(vk))
			}
			if got, want := r.HasOverflow(g), refOverflow(g, wk, vk); got != want {
				t.Fatalf("trial %d %s: HasOverflow = %v, want %v", trial, when, got, want)
			}
		}

		check("unsealed")
		if r.HasOverflow(g) {
			overflowed++
		}
		if r.edges != nil {
			t.Fatalf("trial %d: a query sealed the route", trial)
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
		if r.Committed() || r.edges == nil {
			t.Fatalf("trial %d: after Uncommit committed=%v sealed=%v", trial, r.Committed(), r.edges != nil)
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
