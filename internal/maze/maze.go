// Package maze implements the 3-D maze routing used in the rip-up-and-
// reroute iterations (Section III-G): a multi-source multi-target shortest
// path search on the grid graph, restricted to a search window around the
// net, that reconnects a net pin by pin into a routed tree. Unlike pattern
// routing it explores every path inside the window, which is what lets
// rerouting resolve the violations pattern routing leaves behind.
//
// The search runs as A* by default: an admissible lower bound (L1 distance
// to the nearest remaining target scaled by the unit wire/via costs) prunes
// expansions that plain Dijkstra would settle. Because the congestion term
// of the cost model is strictly positive, the bound is strictly below every
// real path cost, and with an exact (key, node-index) frontier order plus a
// canonical equal-cost parent rule the routed geometry is bit-identical to
// the Dijkstra mode (selectable via SetAlgorithm) — DESIGN.md carries the
// argument, maze_crosscheck_test.go enforces it.
//
// The frontier is a monotone radix heap keyed on the bits of f (queue.go):
// a search pops non-decreasing keys, so a popped key sorts what is left by
// the highest bit in which it differs, and an item moves a few times between
// buckets instead of sifting through a heap of thousands. The queue is
// exact — it pops what a binary heap ordered by (f, node) would, which
// queue_oracle_test.go checks pop for pop — so it changes the cost of an
// expansion and nothing else.
//
// The search state (one 16-byte distance/parent/stamp record per window
// node, the queue's chunk arena, the connected and target sets) lives in a
// reusable Search scratch object: rip-up-and-reroute calls RouteNet
// thousands of times, and reusing one Search per executor worker keeps the
// hot path allocation-free. Stale state is invalidated by epoch stamping
// instead of clearing, so rebinding the scratch to a new window costs O(1)
// beyond any capacity growth. The inner loop addresses a node's neighbours
// by index offset and, on a graph whose full cost field is built, reads edge
// costs straight from it (grid.CostField).
package maze

import (
	"errors"
	"fmt"
	"math"

	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/obs"
	"fastgr/internal/route"
)

// Stats reports the work done by one maze invocation, the currency of the
// rip-up-and-reroute timing model.
type Stats struct {
	Expansions int64 // settled node count
	Pushes     int64 // heap pushes
}

// Algorithm selects the maze search strategy. Both produce bit-identical
// routed geometry (on strictly positive edge costs); they differ only in
// how many nodes they expand.
type Algorithm int

const (
	// AStar, the default, guides the search with the admissible lower bound
	// described in the package comment.
	AStar Algorithm = iota
	// Dijkstra is the unguided baseline (a zero heuristic) — the seed
	// implementation, kept for the cross-check suite and benchmarking.
	Dijkstra
)

func (a Algorithm) String() string {
	if a == Dijkstra {
		return "dijkstra"
	}
	return "astar"
}

// BudgetError reports a RouteNet abandoned because the net's searches
// settled more nodes than the configured expansion budget allows. The
// caller degrades gracefully — typically by keeping the net's pattern
// route. The trip point is a pure function of the graph, the net and the
// budget (expansion order is deterministic), so budgeted runs stay
// bit-identical at every worker count.
type BudgetError struct {
	NetID      int
	Budget     int64
	Expansions int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("expansion budget %d exhausted after %d expansions", e.Budget, e.Expansions)
}

var errUnreachable = errors.New("targets unreachable within window")

// RouteNet maze-routes a whole net inside the window with a fresh scratch
// object. Callers routing many nets should allocate one Search per worker
// and use its RouteNet method instead.
func RouteNet(g *grid.Graph, netID int, pins []geom.Point3, window geom.Rect) (*route.NetRoute, Stats, error) {
	return NewSearch().RouteNet(g, netID, pins, window)
}

// Search is the reusable maze-routing scratch: windowed search state plus
// the per-net connected/target sets. A Search may be reused across nets,
// windows and grids; it must not be used from two goroutines at once. The
// routes it produces are bit-identical to those of a fresh Search.
type Search struct {
	g      *grid.Graph
	win    geom.Rect
	ww, wh int

	// state holds one entry per window node, epoch-stamped so rebinding and
	// starting a new pass both cost O(1). epoch is even and advances by two
	// per pass: a node whose stamp is epoch has been reached in this pass,
	// epoch+1 settled, anything lower is left over from an earlier pass.
	state []nodeState
	epoch uint32

	// wire/via are the graph's full-window cost field, fetched per RouteNet
	// (nil for a windowed or cold cache, which is read through
	// WireCost/ViaEdgeCost); hits is the counter reads of it are owed to.
	wire, via [][]float64
	hits      *obs.Counter
	reads     int64 // field reads of the current pass, not yet added to hits

	// Per-net sets, stamped like state but with epochs that tick once per
	// RouteNet call (they live across that net's passes).
	connStamp []uint32
	targStamp []uint32
	connEpoch uint32
	targEpoch uint32

	// connected is the source list (its membership set is connStamp): the
	// first pin, then each pass's parent chain, target end first. Its order
	// steers nothing: every source is seeded at distance zero with no
	// parent, and the queue pops in the total (f, node) order, so seeding in
	// any order settles the same nodes in the same sequence. targets is the
	// ordered list of unreached targets (membership set: targStamp), scanned
	// by the A* heuristic.
	connected []geom.Point3
	targets   []geom.Point3

	// alg selects the search strategy; hWire/hVia are the per-axis unit
	// costs of the current grid, the heuristic's scale factors.
	alg   Algorithm
	hWire float64
	hVia  float64

	// budget caps the settled-node count across one RouteNet call; 0 (the
	// default) is unlimited.
	budget int64

	q radixQueue
	// trace, set by tests only, sees every frontier push and pop in order.
	trace func(push bool, it qItem)
	b     route.Builder // the route of the current RouteNet call

	// Flight-recorder handles, resolved once by SetObserver; all nil in
	// disabled mode, where RouteNet pays a handful of nil checks.
	expHist     *obs.Histogram
	expHistAlg  [2]*obs.Histogram // indexed by Algorithm
	pushCounter *obs.Counter
	searchCount *obs.Counter
}

// nodeState is the per-pass search state of one window node.
type nodeState struct {
	dist   float64
	parent int32 // predecessor node index, -1 at a source
	stamp  uint32
}

// NewSearch returns an empty scratch; capacity grows on first use. The
// search algorithm defaults to AStar.
func NewSearch() *Search { return &Search{} }

// SetAlgorithm selects the search strategy for subsequent RouteNet calls.
func (s *Search) SetAlgorithm(a Algorithm) { s.alg = a }

// SetBudget caps the total expansions (settled nodes) one RouteNet call
// may spend across its passes; exceeding it aborts the net with a
// *BudgetError. 0 disables the cap.
func (s *Search) SetBudget(budget int64) { s.budget = budget }

// SetObserver attaches (or, with nil, detaches) the flight recorder:
// every RouteNet then records its expansion count into the
// obs.MMazeExpansions histogram (plus the per-algorithm split) and bumps
// the pushes/searches counters. Observation reads only the returned Stats,
// so routed geometry and the expansion counts themselves are unchanged.
func (s *Search) SetObserver(o *obs.Observer) {
	s.expHist = o.M().Histogram(obs.MMazeExpansions, obs.ExpansionBuckets)
	s.expHistAlg[AStar] = o.M().Histogram(obs.MMazeExpansionsAStar, obs.ExpansionBuckets)
	s.expHistAlg[Dijkstra] = o.M().Histogram(obs.MMazeExpansionsDijkstra, obs.ExpansionBuckets)
	s.pushCounter = o.M().Counter(obs.MMazePushes)
	s.searchCount = o.M().Counter(obs.MMazeSearches)
}

// bind points the scratch at a grid and window, growing the node arrays as
// needed. Entries surviving from earlier windows are invalidated by their
// stale stamps, never by clearing.
func (s *Search) bind(g *grid.Graph, win geom.Rect) {
	s.g, s.win = g, win
	s.ww, s.wh = win.Width(), win.Height()
	s.wire, s.via, s.hits = g.CostField()
	n := s.ww * s.wh * g.L
	if cap(s.state) < n {
		s.state = make([]nodeState, n)
		s.connStamp = make([]uint32, n)
		s.targStamp = make([]uint32, n)
		return
	}
	s.state = s.state[:n]
	s.connStamp = s.connStamp[:n]
	s.targStamp = s.targStamp[:n]
}

// bumpEpoch advances an epoch counter, clearing the backing array on the
// (once per 2^32 uses) wrap so stale stamps can never collide.
func bumpEpoch(e *uint32, arr []uint32) {
	*e++
	if *e == 0 {
		for i := range arr {
			arr[i] = 0
		}
		*e = 1
	}
}

// RouteNet maze-routes a whole net inside the window: starting from the
// first pin, it repeatedly searches from the already-connected geometry
// (all its 3-D nodes are sources) to the nearest unconnected pin, until
// every pin is connected. The grid is read-only; the caller commits the
// returned route.
func (s *Search) RouteNet(g *grid.Graph, netID int, pins []geom.Point3, window geom.Rect) (*route.NetRoute, Stats, error) {
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
	bumpEpoch(&s.connEpoch, s.connStamp)
	bumpEpoch(&s.targEpoch, s.targStamp)
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
		limit := int64(-1) // unlimited
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
		s.dropTarget(s.point(reached))
		s.reconstruct(reached)
	}
	s.expHist.Observe(stats.Expansions)
	s.expHistAlg[s.alg].Observe(stats.Expansions)
	s.pushCounter.Add(stats.Pushes)
	s.searchCount.Add(1)
	return s.b.Build(), stats, nil
}

// dropTarget removes a reached target from the ordered target list
// (stable, in place; membership already left targStamp above).
func (s *Search) dropTarget(reached geom.Point3) {
	keep := s.targets[:0]
	for _, t := range s.targets {
		if t != reached {
			keep = append(keep, t)
		}
	}
	s.targets = keep
}

func (s *Search) index(p geom.Point3) int32 {
	return int32(((p.Layer-1)*s.wh+(p.Y-s.win.Lo.Y))*s.ww + (p.X - s.win.Lo.X))
}

func (s *Search) point(i int32) geom.Point3 {
	// 32-bit division: node indices are non-negative int32s.
	ww, wh := uint32(s.ww), uint32(s.wh)
	rest := uint32(i) / ww
	return geom.Point3{
		X:     int(uint32(i)%ww) + s.win.Lo.X,
		Y:     int(rest%wh) + s.win.Lo.Y,
		Layer: int(rest/wh) + 1,
	}
}

// heuristic is the admissible lower bound on the cost from (x, y, l) to the
// cheapest remaining target: per-axis L1 distance scaled by the unit wire
// and via costs, minimized over targets. Every wire edge costs at least
// UnitWire and every via edge at least UnitVia (the congestion term is
// nonnegative), so the bound never exceeds the true remaining cost; it is
// also consistent, because one step changes it by at most that step's unit
// cost. Zero in Dijkstra mode.
func (s *Search) heuristic(x, y, l int) float64 {
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

// search runs one multi-source multi-target pass (A* or Dijkstra per the
// configured algorithm) from the connected set and returns the index of
// whichever target settles first; its parent chain is the cheapest path to
// it. Targets are the nodes whose
// targStamp carries the current target epoch. limit caps this pass's
// expansions (the net budget minus what earlier passes spent); negative
// means unlimited.
//
// A popped entry is stale exactly when its node is already settled: a
// node's lower-cost entry has a key no larger (the heuristic term is the
// same) and the same node index, so it pops no later, and whichever of the
// two pops first settles the node at the distance kept in state, not in the
// entry. Deletion stays lazy, so Pushes counts what it always did.
func (s *Search) search(limit int64) (int32, Stats, error) {
	s.epoch += 2
	if s.epoch == 0 { // wrapped: no stale stamp may alias the new epochs
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
		// A source is a node reached at distance zero from no predecessor.
		s.relax(-1, s.index(src), 0, 0, src.X, src.Y, src.Layer, &st)
	}

	row, plane := int32(s.ww), int32(s.ww*s.wh)
	reached := int32(-1)
	err := errUnreachable
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
			reached, err = i, nil
			break
		}
		if limit >= 0 && st.Expansions > limit {
			err = &BudgetError{}
			break
		}
		d, x, y, l := ns.dist, p.X, p.Y, p.Layer

		// Wire moves along the layer's preferred direction; an edge is named
		// by its lower end, so the backward one belongs to the neighbour.
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
		// Via moves between adjacent layers.
		if l < g.L {
			s.relax(i, i+plane, d, s.viaCost(x, y, l), x, y, l+1, &st)
		}
		if l > 1 {
			s.relax(i, i-plane, d, s.viaCost(x, y, l-1), x, y, l-1, &st)
		}
	}
	s.hits.Add(s.reads)
	s.reads = 0
	return reached, st, err
}

// wireCost and viaCost price one edge: a load from the full cost field when
// the graph has one built, counted in reads; a call into the graph otherwise,
// which counts itself.
func (s *Search) wireCost(l, x, y int) float64 {
	if s.wire == nil {
		return s.g.WireCost(l, x, y)
	}
	s.reads++
	return s.wire[l-1][s.g.WireIndex(l, x, y)]
}

func (s *Search) viaCost(x, y, l int) float64 {
	if s.via == nil {
		return s.g.ViaEdgeCost(x, y, l)
	}
	s.reads++
	return s.via[l-1][y*s.g.W+x]
}

// relax offers node j, at (x, y, l), the path through its neighbour i at
// distance d over an edge of the given (finite) cost.
func (s *Search) relax(i, j int32, d, cost float64, x, y, l int, st *Stats) {
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
		// Canonical parent rule: among equal-cost predecessors the
		// smallest node index wins, independent of relaxation order.
		// (cost > 0 keeps the parent pointers acyclic; sources keep
		// their -1 root marker.)
		ns.parent = i
	}
}

// reconstruct walks the parent chain from end back to a source. Each step
// is one grid edge, added to the route, and every node of the chain joins
// the source set of the next pass.
func (s *Search) reconstruct(end int32) {
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

// connect adds node i, at p, to the source set unless it is there already.
func (s *Search) connect(i int32, p geom.Point3) {
	if s.connStamp[i] != s.connEpoch {
		s.connStamp[i] = s.connEpoch
		s.connected = append(s.connected, p)
	}
}
