package stt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
)

func netOf(pts ...geom.Point) *design.Net {
	n := &design.Net{ID: 1, Name: "n"}
	for _, p := range pts {
		n.Pins = append(n.Pins, design.Pin{Pos: p, Layer: 1})
	}
	return n
}

func TestTwoPinTree(t *testing.T) {
	net := netOf(geom.Point{X: 0, Y: 0}, geom.Point{X: 5, Y: 3})
	tr := Build(net)
	if err := tr.Validate(net); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 || tr.NumEdges() != 1 {
		t.Fatalf("two-pin net built %d nodes", tr.Len())
	}
	if tr.WL() != 8 {
		t.Fatalf("WL = %d, want 8", tr.WL())
	}
}

func TestDuplicatePinPositionsMerged(t *testing.T) {
	net := &design.Net{ID: 2, Name: "d", Pins: []design.Pin{
		{Pos: geom.Point{X: 1, Y: 1}, Layer: 1},
		{Pos: geom.Point{X: 1, Y: 1}, Layer: 2},
		{Pos: geom.Point{X: 4, Y: 4}, Layer: 1},
	}}
	tr := Build(net)
	if err := tr.Validate(net); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("duplicate positions not merged: %d nodes", tr.Len())
	}
	merged := -1
	for u := 0; u < tr.Len(); u++ {
		if tr.Pos(u) == (geom.Point{X: 1, Y: 1}) {
			merged = u
		}
	}
	if merged < 0 || len(tr.PinLayers(merged)) != 2 {
		t.Fatalf("merged node should carry 2 pin layers: node %d", merged)
	}
}

func TestSteinerPointInsertion(t *testing.T) {
	// Three pins in an L: the median point (5,0)... a star via the median
	// (5,5)? Pins (0,0), (10,0), (5,8): MST length = 10 + 13 = 23.
	// Median of the three = (5,0); star length = 5+5+13=23 via (5,0)? The
	// classic win: pins (0,0),(10,0),(5,8) -> Steiner at (5,0): 5+5+8 = 18.
	net := netOf(geom.Point{X: 0, Y: 0}, geom.Point{X: 10, Y: 0}, geom.Point{X: 5, Y: 8})
	tr := Build(net)
	if err := tr.Validate(net); err != nil {
		t.Fatal(err)
	}
	if tr.WL() != 18 {
		t.Fatalf("WL = %d, want 18 (Steiner point at (5,0))", tr.WL())
	}
	steiner := 0
	for u := 0; u < tr.Len(); u++ {
		if !tr.IsPin(u) {
			steiner++
		}
	}
	if steiner != 1 {
		t.Fatalf("expected exactly 1 Steiner node, got %d", steiner)
	}
}

func TestTreeWLNeverWorseThanMSTBound(t *testing.T) {
	// Steinerization must never lengthen the tree, and the tree can never
	// beat the HPWL lower bound.
	f := func(raw []struct{ X, Y uint8 }) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 24 {
			raw = raw[:24]
		}
		seen := map[geom.Point]bool{}
		net := &design.Net{ID: 0, Name: "q"}
		for _, r := range raw {
			p := geom.Point{X: int(r.X) % 64, Y: int(r.Y) % 64}
			if seen[p] {
				continue
			}
			seen[p] = true
			net.Pins = append(net.Pins, design.Pin{Pos: p, Layer: 1})
		}
		if len(net.Pins) < 2 {
			return true
		}
		tr := Build(net)
		if tr.Validate(net) != nil {
			return false
		}
		pts := net.Points()
		mst := mstLength(pts)
		return tr.WL() <= mst && tr.WL() >= net.BBox().HPWL()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func mstLength(pts []geom.Point) int {
	n := len(pts)
	inTree := make([]bool, n)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = 1 << 30
	}
	dist[0] = 0
	total := 0
	for k := 0; k < n; k++ {
		best := -1
		for i := 0; i < n; i++ {
			if !inTree[i] && (best < 0 || dist[i] < dist[best]) {
				best = i
			}
		}
		inTree[best] = true
		total += dist[best]
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := geom.ManhattanDist(pts[best], pts[i]); d < dist[i] {
					dist[i] = d
				}
			}
		}
	}
	return total
}

func TestRootIsFirstPin(t *testing.T) {
	net := netOf(geom.Point{X: 7, Y: 7}, geom.Point{X: 0, Y: 0}, geom.Point{X: 3, Y: 9})
	tr := Build(net)
	if tr.Pos(tr.Root) != (geom.Point{X: 7, Y: 7}) {
		t.Fatalf("root at %v, want first pin (7,7)", tr.Pos(tr.Root))
	}
}

func TestLargeNetTreeValid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := &design.Net{ID: 9, Name: "big"}
	seen := map[geom.Point]bool{}
	for len(net.Pins) < 40 {
		p := geom.Point{X: rng.Intn(200), Y: rng.Intn(200)}
		if seen[p] {
			continue
		}
		seen[p] = true
		net.Pins = append(net.Pins, design.Pin{Pos: p, Layer: 1 + rng.Intn(2)})
	}
	tr := Build(net)
	if err := tr.Validate(net); err != nil {
		t.Fatal(err)
	}
	if tr.NumEdges() != tr.Len()-1 {
		t.Fatal("edge count broken")
	}
}

func TestBBoxCoversAllNodes(t *testing.T) {
	net := netOf(geom.Point{X: 2, Y: 8}, geom.Point{X: 9, Y: 1}, geom.Point{X: 5, Y: 5})
	tr := Build(net)
	bb := tr.BBox()
	for u := 0; u < tr.Len(); u++ {
		if !bb.Contains(tr.Pos(u)) {
			t.Fatalf("node %v outside bbox %+v", tr.Pos(u), bb)
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	net := netOf(geom.Point{X: 0, Y: 0}, geom.Point{X: 5, Y: 5}, geom.Point{X: 9, Y: 2})
	tr := Build(net)
	tr.nodes[tr.Root].parent = 0
	if tr.Validate(net) == nil {
		t.Fatal("root-with-parent accepted")
	}
	tr = Build(net)
	// Detach a child: reachability check must fail.
	for u := 0; u < tr.Len(); u++ {
		if n := &tr.nodes[u]; n.kidsEnd > tr.start(u) {
			// Empty the node's child run; its ids fall into the pin-layer
			// run, and the children become unreachable.
			n.kidsEnd = tr.start(u)
			break
		}
	}
	if tr.Validate(net) == nil {
		t.Fatal("detached subtree accepted")
	}
}

func shiftTestGrid(t *testing.T) *grid.Graph {
	t.Helper()
	d := &design.Design{
		Name: "s", GridW: 20, GridH: 20, NumLayers: 4,
		LayerCapacity: []int{1, 10, 10, 10}, ViaCapacity: 8,
		Nets: []*design.Net{netOf(geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 1})},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return grid.NewFromDesign(d)
}

func TestShiftMovesSteinerAwayFromCongestion(t *testing.T) {
	g := shiftTestGrid(t)
	// Congest row y=0 heavily on the horizontal layers.
	for x := 0; x < 19; x++ {
		for i := 0; i < 15; i++ {
			g.AddSegDemand(3, geom.Point{X: x, Y: 0}, geom.Point{X: x + 1, Y: 0}, 1)
		}
	}
	// Pins force a Steiner point at (5,0) (the congested row); shifting may
	// slide it along Hanan candidates.
	net := netOf(geom.Point{X: 0, Y: 0}, geom.Point{X: 10, Y: 0}, geom.Point{X: 5, Y: 8})
	tr := Build(net)
	wlBefore := tr.WL()
	est := g.Estimator2D()
	costBefore := treeCost(est, tr)
	tr.Shift(est)
	if err := tr.Validate(net); err != nil {
		t.Fatal(err)
	}
	if tr.WL() > wlBefore {
		t.Fatalf("Shift increased WL: %d -> %d", wlBefore, tr.WL())
	}
	if c := treeCost(est, tr); c > costBefore+1e-9 {
		t.Fatalf("Shift increased estimated cost: %v -> %v", costBefore, c)
	}
}

func treeCost(est Estimator, tr *Tree) float64 {
	total := 0.0
	for u := 0; u < tr.Len(); u++ {
		if p := tr.Parent(u); p >= 0 {
			total += est.LPathCost(tr.Pos(u), tr.Pos(p))
		}
	}
	return total
}

func TestShiftNeverMovesPins(t *testing.T) {
	g := shiftTestGrid(t)
	net := netOf(geom.Point{X: 0, Y: 0}, geom.Point{X: 10, Y: 0}, geom.Point{X: 5, Y: 8},
		geom.Point{X: 12, Y: 12})
	tr := Build(net)
	pinPos := map[int]geom.Point{}
	for u := 0; u < tr.Len(); u++ {
		if tr.IsPin(u) {
			pinPos[u] = tr.Pos(u)
		}
	}
	tr.Shift(g.Estimator2D())
	for i, want := range pinPos {
		if tr.Pos(i) != want {
			t.Fatalf("pin node %d moved from %v to %v", i, want, tr.Pos(i))
		}
	}
	if err := tr.Validate(net); err != nil {
		t.Fatal(err)
	}
}

func TestBuildOnGeneratedDesign(t *testing.T) {
	d := design.MustGenerate("18test5", 0.002)
	for _, net := range d.Nets[:200] {
		tr := Build(net)
		if err := tr.Validate(net); err != nil {
			t.Fatalf("net %s: %v", net.Name, err)
		}
	}
}
