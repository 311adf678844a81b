package stt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fastgr/internal/design"
	"fastgr/internal/geom"
)

func TestExactThreePinsKnownOptimal(t *testing.T) {
	cases := []struct {
		pins []geom.Point
		want int
	}{
		// Classic star: Steiner point at the median saves 5.
		{[]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 5, Y: 8}}, 18},
		// Collinear pins: no Steiner point can help.
		{[]geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 9, Y: 0}}, 9},
		// L-shaped: median point is a pin, MST is optimal.
		{[]geom.Point{{X: 0, Y: 0}, {X: 6, Y: 0}, {X: 6, Y: 7}}, 13},
	}
	for _, c := range cases {
		net := netOf(c.pins...)
		tr := Build(net)
		if err := tr.Validate(net); err != nil {
			t.Fatal(err)
		}
		if tr.WL() != c.want {
			t.Errorf("pins %v: WL = %d, want %d", c.pins, tr.WL(), c.want)
		}
	}
}

func TestExactFourPinsCross(t *testing.T) {
	// Four corner pins of a rectangle: two Steiner points on one median
	// line give WL = W + 2H (or H + 2W); MST alone is W + 2H as well for a
	// square? Corners of 10x4: optimal = 10 + 2*4 = 18.
	net := netOf(geom.Point{X: 0, Y: 0}, geom.Point{X: 10, Y: 0},
		geom.Point{X: 0, Y: 4}, geom.Point{X: 10, Y: 4})
	tr := Build(net)
	if err := tr.Validate(net); err != nil {
		t.Fatal(err)
	}
	if tr.WL() != 18 {
		t.Fatalf("rectangle corners WL = %d, want 18", tr.WL())
	}
	// A plus-sign pin set: center Steiner point connects all four arms.
	net = netOf(geom.Point{X: 5, Y: 0}, geom.Point{X: 5, Y: 10},
		geom.Point{X: 0, Y: 5}, geom.Point{X: 10, Y: 5})
	tr = Build(net)
	if tr.WL() != 20 {
		t.Fatalf("plus-sign WL = %d, want 20", tr.WL())
	}
}

// TestExactNeverWorseThanHeuristic: the exact builder must never lose to
// Prim+Steinerize on nets it covers.
func TestExactNeverWorseThanHeuristic(t *testing.T) {
	f := func(raw [4]struct{ X, Y uint8 }, n uint8) bool {
		k := 2 + int(n)%3 // 2..4 pins
		seen := map[geom.Point]bool{}
		var pins []geom.Point
		for i := 0; i < 4 && len(pins) < k; i++ {
			p := geom.Point{X: int(raw[i].X) % 40, Y: int(raw[i].Y) % 40}
			if !seen[p] {
				seen[p] = true
				pins = append(pins, p)
			}
		}
		if len(pins) < 2 {
			return true
		}
		ex := &builder{pos: append([]geom.Point(nil), pins...)}
		ex.exactRSMT()
		exact := adjLength(ex.pos, ex.adj)
		// Heuristic on the same pins.
		h := &builder{pos: append([]geom.Point(nil), pins...)}
		h.primMST()
		h.steinerize()
		heur := adjLength(h.pos, h.adj)
		return exact <= heur && exact >= geom.BoundingBox(pins).HPWL()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// adjLength sums the lengths of an adjacency's undirected edges.
func adjLength(pts []geom.Point, adj [][]int32) int {
	total := 0
	for u := range adj {
		for _, v := range adj[u] {
			if int32(u) < v {
				total += geom.ManhattanDist(pts[u], pts[v])
			}
		}
	}
	return total
}

func TestExactTreesValidOnGeneratedNets(t *testing.T) {
	d := design.MustGenerate("18test8", 0.002)
	count := 0
	for _, net := range d.Nets {
		if len(net.Points()) > exactThreshold || count > 300 {
			continue
		}
		count++
		tr := Build(net)
		if err := tr.Validate(net); err != nil {
			t.Fatalf("net %s: %v", net.Name, err)
		}
		// No useless Steiner points survive.
		deg := make([]int, tr.Len())
		for i := 0; i < tr.Len(); i++ {
			if p := tr.Parent(i); p >= 0 {
				deg[i]++
				deg[p]++
			}
		}
		for i := 0; i < tr.Len(); i++ {
			if !tr.IsPin(i) && deg[i] <= 2 {
				t.Fatalf("net %s: useless Steiner node of degree %d", net.Name, deg[i])
			}
		}
	}
	if count < 50 {
		t.Fatalf("only %d small nets exercised", count)
	}
}

func TestExactDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		var pins []geom.Point
		seen := map[geom.Point]bool{}
		for len(pins) < 4 {
			p := geom.Point{X: rng.Intn(30), Y: rng.Intn(30)}
			if !seen[p] {
				seen[p] = true
				pins = append(pins, p)
			}
		}
		a := Build(netOf(pins...))
		b := Build(netOf(pins...))
		if a.WL() != b.WL() || a.Len() != b.Len() {
			t.Fatalf("exact builder nondeterministic on %v", pins)
		}
		for j := 0; j < a.Len(); j++ {
			if a.Pos(j) != b.Pos(j) {
				t.Fatalf("node order differs on %v", pins)
			}
		}
	}
}
