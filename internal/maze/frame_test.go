package maze

import (
	"slices"
	"sync"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/route"
	"fastgr/internal/stt"
)

// frameCase is one net of a frame test: its pins, its window and what a
// lane with records of its own routes there.
type frameCase struct {
	id    int
	pins  []geom.Point3
	win   geom.Rect
	edges []grid.EdgeID
	stats Stats
}

// laneCases routes every net in its window on one lane-mode Search and
// records the result the frame-mode searches must reproduce.
func laneCases(t *testing.T, g *grid.Graph, nets []*design.Net, margin int) []frameCase {
	t.Helper()
	s := NewSearch()
	cases := make([]frameCase, len(nets))
	for i, n := range nets {
		c := frameCase{id: n.ID, pins: route.PinTerminals(stt.Build(n)), win: n.BBox().Inflate(margin+i%4).ClampTo(g.W, g.H)}
		r, st, err := s.RouteNet(g, c.id, c.pins, c.win)
		if err != nil {
			t.Fatalf("net %s: %v", n.Name, err)
		}
		c.edges, c.stats = r.Edges(), st
		cases[i] = c
	}
	return cases
}

// unionOf is the smallest region covering every case's window.
func unionOf(cases []frameCase) geom.Rect {
	u := cases[0].win
	for _, c := range cases[1:] {
		u = u.Union(c.win)
	}
	return u
}

// drawsOf is a pass's epoch budget: a search pass per pin.
func drawsOf(cases []frameCase) int64 {
	var n int64
	for _, c := range cases {
		n += int64(len(c.pins))
	}
	return n
}

// checkCase routes one case on s and holds it to the lane's result.
func checkCase(t *testing.T, s *Search, g *grid.Graph, c frameCase, what string) {
	r, st, err := s.RouteNet(g, c.id, c.pins, c.win)
	if err != nil {
		t.Errorf("%s: net %d: %v", what, c.id, err)
		return
	}
	if st != c.stats || !slices.Equal(r.Edges(), c.edges) {
		t.Errorf("%s: net %d in %v: stats %+v, lane %+v; edges equal %v",
			what, c.id, c.win, st, c.stats, slices.Equal(r.Edges(), c.edges))
	}
}

// frameDesigns are the real nets the frame tests route: 18test5m and
// 18test8m, each on a warmed full-grid field.
func frameDesigns(t *testing.T) []struct {
	g    *grid.Graph
	nets []*design.Net
} {
	var out []struct {
		g    *grid.Graph
		nets []*design.Net
	}
	for _, dc := range []struct {
		name  string
		scale float64
		nets  int
	}{{"18test5m", 0.004, 120}, {"18test8m", 0.003, 80}} {
		d := design.MustGenerate(dc.name, dc.scale)
		out = append(out, struct {
			g    *grid.Graph
			nets []*design.Net
		}{warm(grid.NewFromDesign(d)), d.Nets[:dc.nets]})
	}
	return out
}

// TestFrameMatchesLanes routes real 18test5m and 18test8m nets on three
// lanes bound to a shared frame over the union of their windows — a frame
// whose origin and strides differ from every window's — taking turns, so
// each net's window overlaps records another lane left, as successive
// tasks of a pass on different workers do. It requires the edge lists and
// Stats a lane with records of its own produces, on a fresh frame and
// again on the same frame rebound, whose records are stale.
func TestFrameMatchesLanes(t *testing.T) {
	for _, fd := range frameDesigns(t) {
		cases := laneCases(t, fd.g, fd.nets, 2)
		f := new(Frame)
		lanes := []*Search{NewSearch(), NewSearch(), NewSearch()}
		for _, s := range lanes {
			s.UseFrame(f)
		}
		for round := 0; round < 2; round++ {
			f.Bind(unionOf(cases), fd.g.L, drawsOf(cases))
			for i, c := range cases {
				checkCase(t, lanes[i%len(lanes)], fd.g, c, "frame")
			}
		}
		// Back to records of its own: the lane regrows them.
		s := lanes[0]
		s.UseFrame(nil)
		for _, c := range cases[:20] {
			checkCase(t, s, fd.g, c, "lane after frame")
		}
	}
}

// TestFrameConcurrentLanes runs four lanes at once on one frame, each
// routing its share of a set of nets with pairwise disjoint windows, as a
// rip-up pass's task graph runs them; under -race it also shows the lanes
// touch disjoint records. Every route must equal the lane-mode one.
func TestFrameConcurrentLanes(t *testing.T) {
	for _, fd := range frameDesigns(t) {
		all := laneCases(t, fd.g, fd.nets, 1)
		var cases []frameCase
		for _, c := range all {
			if !slices.ContainsFunc(cases, func(o frameCase) bool { return o.win.Overlaps(c.win) }) {
				cases = append(cases, c)
			}
		}
		if len(cases) < 6 {
			t.Fatalf("only %d nets with disjoint windows", len(cases))
		}
		f := new(Frame)
		f.Bind(unionOf(cases), fd.g.L, drawsOf(cases))
		const lanes = 4
		var wg sync.WaitGroup
		for w := 0; w < lanes; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := NewSearch()
				s.UseFrame(f)
				for i := w; i < len(cases); i += lanes {
					checkCase(t, s, fd.g, cases[i], "concurrent frame")
				}
			}(w)
		}
		wg.Wait()
		t.Logf("%d nets with disjoint windows on %d lanes", len(cases), lanes)
	}
}

// TestFrameEpochWrap forces the shared counter to within a few draws of
// its wrap through the unexported seam and rebinds: Bind must clear the
// frame and restart the counter, since the pass's budget could wrap it,
// and the routes must equal a fresh frame's. A pass whose budget fits
// keeps the counter running.
func TestFrameEpochWrap(t *testing.T) {
	g, nets, pins, wins := scratchFixture(t)
	cases := make([]frameCase, len(nets))
	fresh := new(Frame)
	s := NewSearch()
	s.UseFrame(fresh)
	for i, n := range nets {
		cases[i] = frameCase{id: n.ID, pins: pins[i], win: wins[i]}
	}
	region, draws := unionOf(cases), drawsOf(cases)
	fresh.Bind(region, g.L, draws)
	for i := range cases {
		r, st, err := s.RouteNet(g, cases[i].id, cases[i].pins, cases[i].win)
		if err != nil {
			t.Fatal(err)
		}
		cases[i].edges, cases[i].stats = r.Edges(), st
	}

	f := new(Frame)
	s.UseFrame(f)
	f.Bind(region, g.L, draws)
	for _, c := range cases {
		checkCase(t, s, g, c, "warm-up")
	}
	for before := uint32(1); before <= 4; before++ {
		f.next.Store(-before * epochStep) // a wrap `before` draws from now
		f.Bind(region, g.L, draws)
		if got := f.next.Load(); got != 0 {
			t.Fatalf("wrap %d draws ahead: Bind kept the counter at %#x", before, got)
		}
		for _, c := range cases {
			checkCase(t, s, g, c, "after a forced wrap")
		}
	}
	at := f.next.Load()
	f.Bind(region, g.L, draws)
	if got := f.next.Load(); got != at {
		t.Fatalf("a pass that fits moved the counter from %#x to %#x", at, got)
	}
}

// TestFrameRejectsOutsideWindow: a window the frame does not cover, or a
// grid of other layers, is an error, not a write outside the records.
func TestFrameRejectsOutsideWindow(t *testing.T) {
	g := testGrid(t, 30, 30, 4)
	f := new(Frame)
	f.Bind(geom.NewRect(geom.Point{}, geom.Point{X: 9, Y: 9}), g.L, 10)
	s := NewSearch()
	s.UseFrame(f)
	pins := []geom.Point3{{X: 2, Y: 3, Layer: 1}, {X: 12, Y: 7, Layer: 1}}
	if _, _, err := s.RouteNet(g, 1, pins, geom.NewRect(geom.Point{}, geom.Point{X: 14, Y: 9})); err == nil {
		t.Fatal("a window outside the frame was accepted")
	}
	f.Bind(fullWindow(g), g.L-1, 10)
	if _, _, err := s.RouteNet(g, 1, pins, fullWindow(g)); err == nil {
		t.Fatal("a frame over fewer layers than the grid was accepted")
	}
}
