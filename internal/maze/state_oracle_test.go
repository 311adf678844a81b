package maze

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/route"
	"fastgr/internal/stt"
)

// refSearch is the search the 12-byte state replaced, kept as an oracle: a
// 16-byte {dist, parent index, stamp} record per window node, a per-net
// connected set and a per-net target set, each stamped with its own epoch.
// It shares the queue and the route builder with Search and nothing else.
type refSearch struct {
	g      *grid.Graph
	win    geom.Rect
	ww, wh int

	state []refNodeState
	epoch uint32

	wire, via [][]float64

	connStamp []uint32
	targStamp []uint32
	connEpoch uint32
	targEpoch uint32
	connected []geom.Point3
	targets   []geom.Point3

	alg    Algorithm
	hWire  float64
	hVia   float64
	budget int64

	q     radixQueue
	trace func(push bool, it qItem)
	b     route.Builder
}

type refNodeState struct {
	dist   float64
	parent int32 // predecessor node index, -1 at a source
	stamp  uint32
}

func (s *refSearch) bind(g *grid.Graph, win geom.Rect) {
	s.g, s.win = g, win
	s.ww, s.wh = win.Width(), win.Height()
	s.wire, s.via, _ = g.CostField()
	n := s.ww * s.wh * g.L
	if cap(s.state) < n {
		s.state = make([]refNodeState, n)
		s.connStamp = make([]uint32, n)
		s.targStamp = make([]uint32, n)
		return
	}
	s.state = s.state[:n]
	s.connStamp = s.connStamp[:n]
	s.targStamp = s.targStamp[:n]
}

func refBumpEpoch(e *uint32, arr []uint32) {
	*e++
	if *e == 0 {
		for i := range arr {
			arr[i] = 0
		}
		*e = 1
	}
}

func (s *refSearch) RouteNet(g *grid.Graph, netID int, pins []geom.Point3, window geom.Rect) (*route.NetRoute, Stats, error) {
	if len(pins) == 0 {
		return nil, Stats{}, fmt.Errorf("maze: net %d has no pins", netID)
	}
	window = window.ClampTo(g.W, g.H)
	for _, p := range pins {
		if !window.Contains(p.P()) {
			return nil, Stats{}, fmt.Errorf("maze: pin %v outside window %v", p, window)
		}
	}
	s.bind(g, window)
	s.hWire = math.Max(0, g.Params.UnitWire)
	s.hVia = math.Max(0, g.Params.UnitVia)
	refBumpEpoch(&s.connEpoch, s.connStamp)
	refBumpEpoch(&s.targEpoch, s.targStamp)
	s.b.Reset(g, netID)
	var stats Stats

	s.connected = append(s.connected[:0], pins[0])
	s.connStamp[s.index(pins[0])] = s.connEpoch
	s.targets = s.targets[:0]
	for _, p := range pins[1:] {
		if p == pins[0] {
			continue
		}
		if i := s.index(p); s.targStamp[i] != s.targEpoch {
			s.targStamp[i] = s.targEpoch
			s.targets = append(s.targets, p)
		}
	}
	for len(s.targets) > 0 {
		limit := int64(-1)
		if s.budget > 0 {
			limit = s.budget - stats.Expansions
		}
		reached, st, err := s.search(limit)
		stats.Expansions += st.Expansions
		stats.Pushes += st.Pushes
		if err != nil {
			var be *BudgetError
			if errors.As(err, &be) {
				be.NetID = netID
				be.Budget = s.budget
				be.Expansions = stats.Expansions
			}
			return nil, stats, fmt.Errorf("maze: net %d: %w", netID, err)
		}
		s.targStamp[reached] = s.targEpoch - 1
		reachedAt := s.point(reached)
		keep := s.targets[:0]
		for _, t := range s.targets {
			if t != reachedAt {
				keep = append(keep, t)
			}
		}
		s.targets = keep
		s.reconstruct(reached)
	}
	return s.b.Build(), stats, nil
}

func (s *refSearch) index(p geom.Point3) int32 {
	return int32(((p.Layer-1)*s.wh+(p.Y-s.win.Lo.Y))*s.ww + (p.X - s.win.Lo.X))
}

func (s *refSearch) point(i int32) geom.Point3 {
	rest := int(i) / s.ww
	return geom.Point3{X: int(i)%s.ww + s.win.Lo.X, Y: rest%s.wh + s.win.Lo.Y, Layer: rest/s.wh + 1}
}

func (s *refSearch) heuristic(x, y, l int) float64 {
	if s.alg == Dijkstra || len(s.targets) == 0 {
		return 0
	}
	best := math.Inf(1)
	for _, t := range s.targets {
		h := float64(geom.Abs(x-t.X)+geom.Abs(y-t.Y))*s.hWire +
			float64(geom.Abs(l-t.Layer))*s.hVia
		if h < best {
			best = h
		}
	}
	return best
}

func (s *refSearch) search(limit int64) (int32, Stats, error) {
	s.epoch += 2
	if s.epoch == 0 {
		full := s.state[:cap(s.state)]
		for i := range full {
			full[i].stamp = 0
		}
		s.epoch = 2
	}
	var st Stats
	g, q, open := s.g, &s.q, s.epoch
	q.reset()
	for _, src := range s.connected {
		s.relax(-1, s.index(src), 0, 0, src.X, src.Y, src.Layer, &st)
	}
	row, plane := int32(s.ww), int32(s.ww*s.wh)
	for !q.empty() {
		it := q.pop()
		if s.trace != nil {
			s.trace(false, it)
		}
		i := it.node
		ns := &s.state[i]
		if ns.stamp != open {
			continue
		}
		ns.stamp = open + 1
		st.Expansions++
		p := s.point(i)
		if s.targStamp[i] == s.targEpoch {
			return i, st, nil
		}
		if limit >= 0 && st.Expansions > limit {
			return -1, st, &BudgetError{}
		}
		d, x, y, l := ns.dist, p.X, p.Y, p.Layer
		dx, dy, step := 1, 0, int32(1)
		hasFwd, hasBack := x < s.win.Hi.X, x > s.win.Lo.X
		if g.Dir(l) == grid.Vertical {
			dx, dy, step = 0, 1, row
			hasFwd, hasBack = y < s.win.Hi.Y, y > s.win.Lo.Y
		}
		if hasFwd {
			s.relax(i, i+step, d, s.wireCost(l, x, y), x+dx, y+dy, l, &st)
		}
		if hasBack {
			s.relax(i, i-step, d, s.wireCost(l, x-dx, y-dy), x-dx, y-dy, l, &st)
		}
		if l < g.L {
			s.relax(i, i+plane, d, s.viaCost(x, y, l), x, y, l+1, &st)
		}
		if l > 1 {
			s.relax(i, i-plane, d, s.viaCost(x, y, l-1), x, y, l-1, &st)
		}
	}
	return -1, st, errUnreachable
}

func (s *refSearch) wireCost(l, x, y int) float64 {
	if s.wire == nil {
		return s.g.WireCost(l, x, y)
	}
	return s.wire[l-1][s.g.WireIndex(l, x, y)]
}

func (s *refSearch) viaCost(x, y, l int) float64 {
	if s.via == nil {
		return s.g.ViaEdgeCost(x, y, l)
	}
	return s.via[l-1][y*s.g.W+x]
}

func (s *refSearch) relax(i, j int32, d, cost float64, x, y, l int, st *Stats) {
	ns, nd := &s.state[j], d+cost
	if fresh := ns.stamp < s.epoch; fresh || nd < ns.dist {
		if fresh {
			ns.stamp = s.epoch
		}
		ns.dist, ns.parent = nd, i
		it := qItem{k: math.Float64bits(nd + s.heuristic(x, y, l)), node: j}
		if s.trace != nil {
			s.trace(true, it)
		}
		s.q.push(it)
		st.Pushes++
	} else if nd == ns.dist && cost > 0 && ns.parent >= 0 && i < ns.parent {
		ns.parent = i
	}
}

func (s *refSearch) reconstruct(end int32) {
	prev := s.point(end)
	s.connect(end, prev)
	for i := s.state[end].parent; i >= 0; i = s.state[i].parent {
		cur := s.point(i)
		if cur.Layer == prev.Layer {
			s.b.Seg(cur.Layer, prev.P(), cur.P())
		} else {
			s.b.Via(cur.X, cur.Y, min(prev.Layer, cur.Layer), max(prev.Layer, cur.Layer))
		}
		s.connect(i, cur)
		prev = cur
	}
}

func (s *refSearch) connect(i int32, p geom.Point3) {
	if s.connStamp[i] != s.connEpoch {
		s.connStamp[i] = s.connEpoch
		s.connected = append(s.connected, p)
	}
}

// tracedEvent is one frontier push or pop as the trace hook sees it.
type tracedEvent struct {
	push bool
	it   qItem
}

// oraclePair drives a Search and a refSearch with the same nets and holds
// them to the same traces, stats, errors and edge lists. The oracle routes
// first; the Search's trace is then checked event by event, so a broken
// search fails at its first divergent push or pop instead of running on.
type oraclePair struct {
	t        *testing.T
	got      *Search
	want     *refSearch
	refTrace []tracedEvent
	seen     int // events of the Search's trace checked so far
	net      string
	last     Stats // of the latest route
	nets     int
	trips    int
}

func newOraclePair(t *testing.T, alg Algorithm) *oraclePair {
	p := &oraclePair{t: t, got: NewSearch(), want: &refSearch{}}
	p.got.SetAlgorithm(alg)
	p.want.alg = alg
	p.want.trace = func(push bool, it qItem) { p.refTrace = append(p.refTrace, tracedEvent{push, it}) }
	p.got.trace = func(push bool, it qItem) {
		if ev := (tracedEvent{push, it}); p.seen >= len(p.refTrace) || p.refTrace[p.seen] != ev {
			p.t.Fatalf("%s: trace event %d is %+v, oracle has %d events", p.net, p.seen, ev, len(p.refTrace))
		}
		p.seen++
	}
	return p
}

func (p *oraclePair) setBudget(b int64) {
	p.got.SetBudget(b)
	p.want.budget = b
}

func (p *oraclePair) route(g *grid.Graph, netID int, pins []geom.Point3, win geom.Rect) {
	p.t.Helper()
	p.refTrace, p.seen = p.refTrace[:0], 0
	p.net = fmt.Sprintf("net %d %v in %v", netID, pins, win)
	wr, ws, werr := p.want.RouteNet(g, netID, pins, win)
	gr, gs, gerr := p.got.RouteNet(g, netID, pins, win)
	p.nets, p.last = p.nets+1, ws
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		p.t.Fatalf("%s: error %v, oracle %v", p.net, gerr, werr)
	}
	var be *BudgetError
	if errors.As(werr, &be) {
		p.trips++
	}
	if gs != ws {
		p.t.Fatalf("%s: stats %+v, oracle %+v", p.net, gs, ws)
	}
	if p.seen != len(p.refTrace) {
		p.t.Fatalf("%s: trace ends after %d of the oracle's %d events", p.net, p.seen, len(p.refTrace))
	}
	if werr == nil && !slices.Equal(gr.Edges(), wr.Edges()) {
		p.t.Fatalf("%s: edges\n%v\noracle\n%v", p.net, gr.Edges(), wr.Edges())
	}
}

// congest adds random wire demand so equal-cost ties are not the only case.
func congest(g *grid.Graph, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		l := 1 + rng.Intn(g.L)
		x, y := rng.Intn(g.W-1), rng.Intn(g.H-1)
		if !g.HasWireEdge(l, x, y) {
			continue
		}
		if g.Dir(l) == grid.Horizontal {
			g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x + 1, Y: y}, rng.Intn(12))
		} else {
			g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x, Y: y + 1}, rng.Intn(12))
		}
	}
}

// randomPins draws n pins inside win; with dup set, some repeat an earlier
// pin (the first one included).
func randomPins(rng *rand.Rand, g *grid.Graph, win geom.Rect, n int, dup bool) []geom.Point3 {
	pins := make([]geom.Point3, 0, n)
	for len(pins) < n {
		if dup && len(pins) > 0 && rng.Intn(3) == 0 {
			pins = append(pins, pins[rng.Intn(len(pins))])
			continue
		}
		pins = append(pins, geom.Point3{
			X:     win.Lo.X + rng.Intn(win.Width()),
			Y:     win.Lo.Y + rng.Intn(win.Height()),
			Layer: 1 + rng.Intn(g.L),
		})
	}
	return pins
}

// randomWindow draws a window of the grid; shape 1 is one cell wide, 2 one
// cell tall, anything else free.
func randomWindow(rng *rand.Rand, g *grid.Graph, shape int) geom.Rect {
	x0, y0 := rng.Intn(g.W), rng.Intn(g.H)
	x1, y1 := x0+rng.Intn(g.W-x0), y0+rng.Intn(g.H-y0)
	switch shape {
	case 1:
		x1 = x0
	case 2:
		y1 = y0
	}
	return geom.Rect{Lo: geom.Point{X: x0, Y: y0}, Hi: geom.Point{X: x1, Y: y1}}
}

// TestSearchStateMatchesOracle holds the 12-byte search state to the
// 16-byte search it replaced, push for push and pop for pop, on random
// congested grids at 2, 5 and 9 layers, on the crosscheck's tie-heavy flat
// costs (cold and warm), in 1-wide and 1-tall windows, with repeated pins
// and pins that an earlier pass's chain already connects, and through
// budget trips — in both search modes, on one reused scratch each.
func TestSearchStateMatchesOracle(t *testing.T) {
	flat := grid.DefaultCostParams()
	flat.UnitWire, flat.CongestionWeight = 0.3, 1e-11
	for _, tc := range []struct {
		name   string
		layers int
		params grid.CostParams
		warm   bool
	}{
		{"L2", 2, grid.DefaultCostParams(), false},
		{"L5", 5, grid.DefaultCostParams(), true},
		{"L9", 9, grid.DefaultCostParams(), false},
		{"flat", 5, flat, false},
		{"flat-warm", 5, flat, true},
	} {
		for _, alg := range []Algorithm{AStar, Dijkstra} {
			t.Run(tc.name+"/"+alg.String(), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(31*tc.layers) + int64(alg)))
				g := oracleGrid(t, 28, 24, tc.layers, tc.params)
				congest(g, rng, 600)
				if tc.warm {
					g.WarmCostCache()
				}
				p := newOraclePair(t, alg)
				for n := 0; n < 150; n++ {
					win := randomWindow(rng, g, n%4)
					pins := randomPins(rng, g, win, 2+rng.Intn(6), n%3 == 0)
					p.route(g, n, pins, win)
				}
				// A pin on another pin's route: c lies on the route of a->b,
				// so with pins {a, b, c} the first pass ends at c and the
				// second starts from a chain that runs along b's path.
				for n := 0; n < 40; n++ {
					win := randomWindow(rng, g, 0)
					ab := randomPins(rng, g, win, 2, false)
					r, _, err := NewSearch().RouteNet(g, 0, ab, win)
					if err != nil || len(r.Edges()) < 2 {
						continue
					}
					e := r.Edges()[rng.Intn(len(r.Edges()))]
					c, _ := g.EdgeEnds(e)
					p.route(g, 1000+n, []geom.Point3{ab[0], ab[1], c}, win)
				}
				// Budget trips at every depth of a multi-pin net.
				win := fullWindow(g)
				pins := randomPins(rng, g, win, 6, false)
				p.setBudget(0)
				p.route(g, 2000, pins, win)
				spent := p.last.Expansions
				for b := int64(1); b <= spent; b += 1 + spent/23 {
					p.setBudget(b)
					p.route(g, 2001, pins, win)
				}
				p.setBudget(0)
				if p.trips == 0 {
					t.Fatal("no budget trip was exercised")
				}
				t.Logf("%d nets, %d budget trips", p.nets, p.trips)
			})
		}
	}
}

// oracleGrid is a w x h grid of the given layers and cost parameters.
func oracleGrid(t *testing.T, w, h, layers int, params grid.CostParams) *grid.Graph {
	t.Helper()
	caps := make([]int, layers)
	for i := range caps {
		caps[i] = 8
	}
	d := &design.Design{
		Name: "oracle", GridW: w, GridH: h, NumLayers: layers,
		LayerCapacity: caps, ViaCapacity: 8,
		Nets: []*design.Net{{ID: 0, Name: "n", Pins: []design.Pin{
			{Pos: geom.Point{X: 0, Y: 0}, Layer: 1},
			{Pos: geom.Point{X: 1, Y: 1}, Layer: 1},
		}}},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return grid.NewFromDesignParams(d, params)
}

// TestSearchStateMatchesOracleOnDesign runs the oracle over a generated
// design's real nets and windows, the inputs the rip-up stage sees.
func TestSearchStateMatchesOracleOnDesign(t *testing.T) {
	g, nets, pins, wins := scratchFixture(t)
	p := newOraclePair(t, AStar)
	for i, n := range nets {
		p.route(g, n.ID, pins[i], wins[i])
	}
	d := design.MustGenerate("18test8m", 0.003)
	g2 := grid.NewFromDesign(d)
	for _, n := range d.Nets[:40] {
		p.route(g2, n.ID, route.PinTerminals(stt.Build(n)), n.BBox().Inflate(3).ClampTo(g2.W, g2.H))
	}
}
