package maze

import (
	"slices"
	"testing"
	"unsafe"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/route"
	"fastgr/internal/stt"
)

// scratchFixture builds a congested design slice with varied windows so
// scratch reuse crosses window sizes and grids.
func scratchFixture(t testing.TB) (*grid.Graph, []*design.Net, [][]geom.Point3, []geom.Rect) {
	d := design.MustGenerate("18test5m", 0.004)
	g := grid.NewFromDesign(d)
	nets := d.Nets[:80]
	pins := make([][]geom.Point3, len(nets))
	wins := make([]geom.Rect, len(nets))
	for i, n := range nets {
		pins[i] = route.PinTerminals(stt.Build(n))
		wins[i] = n.BBox().Inflate(2+i%5).ClampTo(g.W, g.H)
	}
	return g, nets, pins, wins
}

// TestSearchReuseMatchesFresh locks the bit-identical contract: one Search
// routed through many nets, windows and repeat visits must produce exactly
// the geometry and work counters a fresh scratch per call produces.
func TestSearchReuseMatchesFresh(t *testing.T) {
	g, nets, pins, wins := scratchFixture(t)
	s := NewSearch()
	// Two rounds so the second round hits fully warmed scratch state.
	for round := 0; round < 2; round++ {
		for i, n := range nets {
			fresh, freshStats, err1 := RouteNet(g, n.ID, pins[i], wins[i])
			reused, reusedStats, err2 := s.RouteNet(g, n.ID, pins[i], wins[i])
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("round %d net %s: error divergence: %v vs %v", round, n.Name, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if freshStats != reusedStats {
				t.Fatalf("round %d net %s: stats %+v vs %+v", round, n.Name, freshStats, reusedStats)
			}
			if !slices.Equal(fresh.Edges(), reused.Edges()) {
				t.Fatalf("round %d net %s: geometry diverged:\n%+v\nvs\n%+v",
					round, n.Name, fresh.Edges(), reused.Edges())
			}
		}
	}
}

// TestSearchReuseAcrossGrids rebinding a scratch to a different grid must
// not leak state from the previous one.
func TestSearchReuseAcrossGrids(t *testing.T) {
	g1, nets1, pins1, wins1 := scratchFixture(t)
	d2 := design.MustGenerate("18test8m", 0.003)
	g2 := grid.NewFromDesign(d2)
	n2 := d2.Nets[0]
	p2 := route.PinTerminals(stt.Build(n2))
	w2 := n2.BBox().Inflate(4).ClampTo(g2.W, g2.H)

	s := NewSearch()
	if _, _, err := s.RouteNet(g1, nets1[0].ID, pins1[0], wins1[0]); err != nil {
		t.Fatal(err)
	}
	reused, _, err := s.RouteNet(g2, n2.ID, p2, w2)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := RouteNet(g2, n2.ID, p2, w2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fresh.Edges(), reused.Edges()) {
		t.Fatalf("cross-grid reuse diverged:\n%+v\nvs\n%+v", fresh.Edges(), reused.Edges())
	}
	if err := reused.Validate(g2, p2); err != nil {
		t.Fatal(err)
	}
}

// TestSearchReuseSteadyStateAllocs asserts the hot path stops allocating
// search state: repeated RouteNet calls on a warmed scratch may only
// allocate the returned route.
func TestSearchReuseSteadyStateAllocs(t *testing.T) {
	g, nets, pins, wins := scratchFixture(t)
	s := NewSearch()
	route := func() {
		for i, n := range nets {
			if _, _, err := s.RouteNet(g, n.ID, pins[i], wins[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	route() // warm the scratch
	fresh := testing.AllocsPerRun(3, func() {
		for i, n := range nets {
			if _, _, err := RouteNet(g, n.ID, pins[i], wins[i]); err != nil {
				t.Fatal(err)
			}
		}
	})
	reused := testing.AllocsPerRun(3, route)
	if reused > fresh/2 {
		t.Fatalf("scratch reuse saves too little: %.0f allocs vs %.0f fresh", reused, fresh)
	}
}

// TestSearchFootprint pins what a warmed scratch retains. The queue's arena
// holds the chunks the peak frontier fills plus at most one partly filled
// chunk per bucket, and a window node costs one 12-byte record — distance
// plus a word packing epoch, flags and parent direction — against the 24 of
// the 16-byte record and two per-net stamp arrays it replaced.
func TestSearchFootprint(t *testing.T) {
	g, nets, pins, wins := scratchFixture(t)
	s := NewSearch()
	live, peak, nodes := 0, 0, 0
	s.trace = func(push bool, _ qItem) {
		if !push {
			live--
			return
		}
		if s.q.empty() { // the pass before left its frontier behind; reset dropped it
			live = 0
		}
		if live++; live > peak {
			peak = live
		}
	}
	for i, n := range nets {
		if _, _, err := s.RouteNet(g, n.ID, pins[i], wins[i]); err != nil {
			t.Fatal(err)
		}
		if w := wins[i].Area() * g.L; w > nodes {
			nodes = w
		}
	}
	if max := (peak+chunkCap-1)/chunkCap + 64; s.q.chunks > max {
		t.Fatalf("queue arena holds %d chunks after a peak of %d items; the bound is %d", s.q.chunks, peak, max)
	}
	if sz := unsafe.Sizeof(nodeState{}); sz != 12 {
		t.Fatalf("nodeState is %d bytes, want 12", sz)
	}
	retained := cap(s.state) * int(unsafe.Sizeof(nodeState{}))
	if perNode := float64(retained) / float64(nodes); perNode > 12 {
		t.Fatalf("scratch retains %.1f bytes per node of its largest window (%d nodes), want at most 12", perNode, nodes)
	}
	t.Logf("peak frontier %d items, %d chunks; %d bytes for %d window nodes", peak, s.q.chunks, retained, nodes)
}

// TestSearchEpochWrap routes across the epoch's wrap-around on a warmed
// scratch: the wrap must clear every record ever bound, or words stamped
// with the last epochs before it outrank the first ones after it and read
// as reached, settled or flagged. Routes and stats must equal a fresh
// Search's, whichever pass of a net the wrap falls in.
func TestSearchEpochWrap(t *testing.T) {
	g, nets, pins, wins := scratchFixture(t)
	s := NewSearch()
	for i, n := range nets {
		if _, _, err := s.RouteNet(g, n.ID, pins[i], wins[i]); err != nil {
			t.Fatal(err)
		}
	}
	for before := uint32(1); before <= 4; before++ {
		s.epoch = -before * epochStep // the wrap comes `before` passes from now
		for i, n := range nets[:20] {
			fresh, freshStats, err := RouteNet(g, n.ID, pins[i], wins[i])
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, err := s.RouteNet(g, n.ID, pins[i], wins[i])
			if err != nil {
				t.Fatalf("wrap %d passes ahead, net %s: %v", before, n.Name, err)
			}
			if gotStats != freshStats || !slices.Equal(got.Edges(), fresh.Edges()) {
				t.Fatalf("wrap %d passes ahead, net %s: stats %+v vs fresh %+v, edges equal %v",
					before, n.Name, gotStats, freshStats, slices.Equal(got.Edges(), fresh.Edges()))
			}
		}
		if s.epoch >= 1<<20 {
			t.Fatalf("epoch %#x: the wrap never happened", s.epoch)
		}
	}
}
