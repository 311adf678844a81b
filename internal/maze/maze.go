// Package maze implements the 3-D maze routing used in the rip-up-and-
// reroute iterations (Section III-G): a multi-source multi-target shortest
// path search on the grid graph, restricted to a search window around the
// net, that reconnects a net pin by pin into a routed tree. Unlike pattern
// routing it explores every path inside the window, which is what lets
// rerouting resolve the violations pattern routing leaves behind.
//
// The search runs as A* by default: an admissible lower bound prunes
// expansions that plain Dijkstra would settle. It is the L1 distance to the
// nearest remaining target scaled by the unit wire/via costs and, when the
// window is congested enough that this ignores most of the cost, the larger
// of that and a potential over the window's G-cell plane priced at each
// edge's cheapest layer, plus the layer gap (bound.go). Both are strictly
// consistent — strictly below every edge's cost plus the next node's
// bound — and 0 at every remaining target, so with an exact (key,
// node-index) frontier order plus a canonical equal-cost parent rule the
// routed geometry is bit-identical to the Dijkstra mode (selectable via
// SetAlgorithm) — DESIGN.md carries the argument, maze_crosscheck_test.go
// and bound_test.go enforce it.
//
// The frontier is a monotone radix heap keyed on the bits of f (queue.go):
// a search pops non-decreasing keys, so a popped key sorts what is left by
// the highest bit in which it differs, and an item moves a few times between
// buckets instead of sifting through a heap of thousands. The queue is
// exact — it pops what a binary heap ordered by (f, node) would, which
// queue_oracle_test.go checks pop for pop — so it changes the cost of an
// expansion and nothing else.
//
// The search state (one 12-byte record per node, the queue's chunk arena,
// the source and target lists) lives in a reusable Search scratch object:
// rip-up-and-reroute calls RouteNet thousands of times, and reusing one
// Search per executor worker — a lane — keeps the hot path allocation-free
// (the bound's plane excepted: an engaged net allocates it and drops it on
// return, so a kept scratch never holds one). The records sit in a frame,
// an origin plus strides over all layers. A lane on its own owns one frame,
// its window, grown to the largest window it has routed. A lane bound to a
// shared Frame (UseFrame) keeps no records of its own: every lane of a pass
// searches in one frame over the union of the pass's windows, which is
// safe because tasks that run at once have disjoint windows and so touch
// disjoint records. Both index a node row-major over (layer, y, x), so the
// two orders agree inside every window and the search is the same
// expansion for expansion (DESIGN.md "Search frames"). A
// record is the node's distance plus one 32-bit word packing the pass epoch,
// a settled bit, a target bit and the direction of the node's parent (one of
// six neighbours, or none at a source); state_oracle_test.go holds it push
// for push to the 24-byte-a-node state it replaced. Stale state is
// invalidated by the epoch instead of clearing, so rebinding the scratch to
// a new window costs O(1) beyond any capacity growth. The inner loop
// addresses a node's neighbours by index offset and reads edge costs
// straight from the graph's built cost field (grid.CostField), full or
// windowed — its one cost-read path — so a graph is searchable only inside
// the window its cost cache was warmed over.
package maze

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

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
	// BoundPasses counts the passes that ran with the congestion-aware
	// bound (bound.go), BoundCells the plane cells its floods settled.
	BoundPasses int64
	BoundCells  int64
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
// the per-net source and target lists. A Search may be reused across nets,
// windows and grids; it must not be used from two goroutines at once. The
// routes it produces are bit-identical to those of a fresh Search.
type Search struct {
	g      *grid.Graph
	win    geom.Rect
	ww, wh int

	// state holds one record per frame node, epoch-stamped so rebinding
	// and starting a new pass both cost O(1). epoch is the current pass's
	// value of a word's epoch bits: a word below it is left over from an
	// earlier pass. org and fw, fh are the frame's origin and its width and
	// height in G-cells: the window's own in lane mode, the shared frame's
	// when frame is set. A frame-bound lane holds state only inside
	// RouteNet.
	state  []nodeState
	epoch  uint32
	org    geom.Point
	fw, fh int
	frame  *Frame

	// f is the graph's cost field, copied per RouteNet; reads counts the
	// field reads of the current pass, not yet added to f.Hits.
	f     grid.CostField
	reads int64

	// connected is the source list: the first pin, then each pass's parent
	// chain, target end first. Its order steers nothing: every source is
	// seeded at distance zero with no parent, and the queue pops in the
	// total (f, node) order, so seeding in any order settles the same nodes
	// in the same sequence. targets is the ordered list of unreached pins
	// other than the first, scanned by the A* heuristic; each pass flags
	// them in their records. A repeated pin stays repeated: reaching it
	// drops every copy, and the heuristic's minimum ignores copies.
	connected []geom.Point3
	targets   []geom.Point3

	// alg selects the search strategy; hWire/hVia are the per-axis unit
	// costs of the current grid, the heuristic's scale factors.
	alg   Algorithm
	hWire float64
	hVia  float64

	// plane is the congestion-aware bound's table over the window's
	// G-cells (bound.go): built when RouteNet engages the bound, dropped
	// when it returns, nil otherwise. planeEpoch stamps the cells the
	// current flood may still lower.
	plane      []planeCell
	planeEpoch uint32

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
	boundPasses *obs.Counter
	boundCells  *obs.Counter
}

// nodeState is the per-pass search state of one window node: the bits of
// its float64 distance, split in halves so the record packs to 12 bytes
// (a float64 field would align it to 16), and a word laid out as
//
//	bits 0-2  parent code: 0 at a source, else the parent's direction
//	bit  3    target: a pin this pass searches for
//	bit  4    settled
//	bits 5-31 the epoch of the pass that wrote the record
type nodeState struct {
	distLo, distHi uint32
	word           uint32
}

const (
	parentMask = 1<<3 - 1
	targetBit  = 1 << 3
	settledBit = 1 << 4
	epochStep  = 1 << 5
)

// Parent codes, numbered in the order of the index offsets they stand for
// (reconstruct maps them back), so the smaller code always names the smaller
// parent index, which is what the canonical equal-cost parent rule compares. A node's candidate parents are
// its wire neighbours along one axis and its via neighbours, and their
// offsets are distinct whenever both exist (a horizontal layer has x moves
// only when the window is at least 2 wide, so plane > 1; a vertical one has
// y moves only when it is at least 2 tall, so plane > row).
const (
	fromBelow = 1 + iota // parent at -plane
	fromSouth            // -row
	fromWest             // -1
	fromEast             // +1
	fromNorth            // +row
	fromAbove            // +plane
)

// Frame is a record array that the lanes of one rip-up pass share: one
// record per node of a region over all layers. The pass's coordinator
// binds it (Bind) before any lane searches and no lane may search while it
// rebinds; the lanes (UseFrame) must route windows inside the region, and
// two lanes may route at once only in disjoint windows. A zero Frame is
// ready for Bind.
type Frame struct {
	region geom.Rect
	layers int
	fw, fh int
	state  []nodeState
	// next is the last epoch drawn: each search pass of every lane draws
	// the next one, so a record left by a pass that finished before
	// another began is stale to it.
	next atomic.Uint32
}

// MaxFrameDraws is the most search passes one Bind can promise without the
// epoch counter wrapping.
const MaxFrameDraws = math.MaxUint32 / epochStep

// Bind sizes f to region over layers for a pass that draws at most draws
// epochs — its search passes, one per pin a RouteNet connects, attempts
// included — growing the records only when they lack capacity. Records
// from earlier passes stay, invalidated by their epochs; when the pass
// could wrap the counter they are cleared here, before any lane runs,
// never mid-pass. draws must not exceed MaxFrameDraws.
func (f *Frame) Bind(region geom.Rect, layers int, draws int64) {
	if draws < 0 || draws > MaxFrameDraws {
		panic(fmt.Sprintf("maze: %d epoch draws outside [0, %d]", draws, MaxFrameDraws))
	}
	f.region, f.layers = region, layers
	f.fw, f.fh = region.Width(), region.Height()
	n := f.fw * f.fh * layers
	if cap(f.state) < n {
		f.state = make([]nodeState, n)
		f.next.Store(0)
		return
	}
	f.state = f.state[:n]
	if uint64(f.next.Load())+uint64(draws)*epochStep > math.MaxUint32 {
		clear(f.state[:cap(f.state)])
		f.next.Store(0)
	}
}

// Release drops f's records.
func (f *Frame) Release() { f.state = nil }

func (n *nodeState) dist() float64 {
	return math.Float64frombits(uint64(n.distHi)<<32 | uint64(n.distLo))
}

func (n *nodeState) setDist(d float64) {
	b := math.Float64bits(d)
	n.distLo, n.distHi = uint32(b), uint32(b>>32)
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
// the pushes/searches counters and the bound's passes/cells counters.
// Observation reads only the returned Stats, so routed geometry and the
// expansion counts themselves are unchanged.
func (s *Search) SetObserver(o *obs.Observer) {
	s.expHist = o.M().Histogram(obs.MMazeExpansions)
	s.expHistAlg[AStar] = o.M().Histogram(obs.MMazeExpansionsAStar)
	s.expHistAlg[Dijkstra] = o.M().Histogram(obs.MMazeExpansionsDijkstra)
	s.pushCounter = o.M().Counter(obs.MMazePushes)
	s.searchCount = o.M().Counter(obs.MMazeSearches)
	s.boundPasses = o.M().Counter(obs.MMazeBoundPasses)
	s.boundCells = o.M().Counter(obs.MMazeBoundCells)
}

// UseFrame binds the lane to a shared frame for its next RouteNet calls,
// dropping the lane's own records, or with nil returns it to records of
// its own, which grow again on first use.
func (s *Search) UseFrame(f *Frame) {
	if f != nil {
		s.state = nil
	}
	s.frame = f
}

// bind points the scratch at a grid, its cost field and a window, and at
// the shared frame's records or its own, grown to the window as needed.
// Records surviving from earlier windows are invalidated by their stale
// epochs, never by clearing.
func (s *Search) bind(g *grid.Graph, f *grid.CostField, win geom.Rect) {
	s.g, s.f, s.win = g, *f, win
	s.ww, s.wh = win.Width(), win.Height()
	if fr := s.frame; fr != nil {
		s.org, s.fw, s.fh, s.state = fr.region.Lo, fr.fw, fr.fh, fr.state
		return
	}
	s.org, s.fw, s.fh = win.Lo, s.ww, s.wh
	n := s.ww * s.wh * g.L
	if cap(s.state) < n {
		s.state = make([]nodeState, n)
		return
	}
	s.state = s.state[:n]
}

// RouteNet maze-routes a whole net inside the window: starting from the
// first pin, it repeatedly searches from the already-connected geometry
// (all its 3-D nodes are sources) to the nearest unconnected pin, until
// every pin is connected. The grid is read-only; the caller commits the
// returned route. The graph's cost cache must be built (WarmCostCache) over
// a region containing the window. On return the scratch holds no reference
// to the graph or its cost field, so a scratch kept between calls never
// pins a view's cache.
func (s *Search) RouteNet(g *grid.Graph, netID int, pins []geom.Point3, window geom.Rect) (*route.NetRoute, Stats, error) {
	defer s.release()
	if len(pins) == 0 {
		return nil, Stats{}, fmt.Errorf("maze: net %d has no pins", netID)
	}
	window = window.ClampTo(g.W, g.H)
	for _, p := range pins {
		if !window.Contains(p.P()) {
			return nil, Stats{}, fmt.Errorf("maze: pin %v outside window %v", p, window)
		}
	}
	f := g.CostField()
	if f == nil || !f.Win.ContainsRect(window) {
		return nil, Stats{}, fmt.Errorf("maze: net %d: no cost field built over window %v", netID, window)
	}
	if fr := s.frame; fr != nil && (!fr.region.ContainsRect(window) || fr.layers != g.L) {
		return nil, Stats{}, fmt.Errorf("maze: net %d: window %v over %d layers outside the frame %v over %d",
			netID, window, g.L, fr.region, fr.layers)
	}

	s.bind(g, f, window)
	s.hWire = math.Max(0, g.Params.UnitWire)
	s.hVia = math.Max(0, g.Params.UnitVia)
	s.b.Reset(g, netID)
	var stats Stats

	s.connected = append(s.connected[:0], pins[0])
	s.targets = s.targets[:0]
	for _, p := range pins[1:] {
		if p != pins[0] {
			s.targets = append(s.targets, p)
		}
	}
	if s.alg == AStar && len(s.targets) > 0 {
		engage, reads := congested(g, window)
		s.reads += reads
		if engage {
			s.buildPlane()
		}
	}
	for len(s.targets) > 0 {
		if s.plane != nil {
			stats.BoundPasses++
			stats.BoundCells += s.settlePlane()
		}
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
		at := s.point(reached)
		s.dropTarget(at)
		s.reconstruct(reached)
		if s.plane != nil && len(s.targets) > 0 {
			s.reopen(at.X, at.Y)
		}
	}
	s.expHist.Observe(stats.Expansions)
	s.expHistAlg[s.alg].Observe(stats.Expansions)
	s.pushCounter.Add(stats.Pushes)
	s.searchCount.Add(1)
	s.boundPasses.Add(stats.BoundPasses)
	s.boundCells.Add(stats.BoundCells)
	return s.b.Build(), stats, nil
}

// release drops the scratch's references to the graph of the last call,
// the bound's plane and a shared frame's records.
func (s *Search) release() {
	s.g, s.f = nil, grid.CostField{}
	s.b.Reset(nil, 0)
	s.plane = nil
	if s.frame != nil {
		s.state = nil
	}
}

// dropTarget removes every copy of a reached target from the ordered
// target list (stable, in place).
func (s *Search) dropTarget(reached geom.Point3) {
	keep := s.targets[:0]
	for _, t := range s.targets {
		if t != reached {
			keep = append(keep, t)
		}
	}
	s.targets = keep
}

// index and point map a node to its frame index and back: row-major over
// (layer, y, x), so inside a window the frame order is the window order.
func (s *Search) index(p geom.Point3) int32 {
	return int32(((p.Layer-1)*s.fh+(p.Y-s.org.Y))*s.fw + (p.X - s.org.X))
}

func (s *Search) point(i int32) geom.Point3 {
	// 32-bit division: node indices are non-negative int32s.
	fw, fh := uint32(s.fw), uint32(s.fh)
	rest := uint32(i) / fw
	return geom.Point3{
		X:     int(uint32(i)%fw) + s.org.X,
		Y:     int(rest%fh) + s.org.Y,
		Layer: int(rest/fh) + 1,
	}
}

// heuristic is the admissible lower bound on the cost from (x, y, l) to the
// cheapest remaining target. Its L1 term is the per-axis L1 distance
// scaled by the unit wire and via costs, minimized over targets: every
// wire edge costs at least UnitWire and every via edge at least UnitVia
// (the congestion term is nonnegative), so it never exceeds the true
// remaining cost, and it is consistent, because one step changes it by at
// most that step's unit cost. An engaged net takes the larger of that and
// the bound term (bound.go): the plane potential of (x, y) plus the layer
// gap to the nearest target layer at boundScale·UnitVia a layer, which is
// below every remaining path by a 1024th of its unit costs and steps by
// less than any edge's cost; the maximum of two such bounds is one too.
// Both terms are 0 at every remaining target. Zero in Dijkstra mode.
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
	if s.plane != nil {
		gap := math.MaxInt
		for _, t := range s.targets {
			gap = min(gap, geom.Abs(l-t.Layer))
		}
		best = max(best, s.plane[s.cell(x, y)].phi+float64(gap)*s.hVia*boundScale)
	}
	return best
}

// search runs one multi-source multi-target pass (A* or Dijkstra per the
// configured algorithm) from the connected set and returns the index of
// whichever target settles first; its parent chain is the cheapest path to
// it. limit caps this pass's expansions (the net budget minus what earlier
// passes spent); negative means unlimited.
//
// The pass opens a new epoch: the lane's next one, or on a shared frame
// the frame's next draw, which exceeds the epoch of every pass that
// finished before this one began (Frame.Bind has ruled out a wrap). It
// flags each remaining target in its record
// at distance +Inf: a target is then reached like any fresh node (every
// finite distance beats +Inf), keeps its flag through relaxation, and is
// recognised on pop from the record already loaded. No target is ever a
// source: a pin on an earlier pass's chain would have settled, at a smaller
// distance, before the pin that ended that pass.
//
// A popped entry is stale exactly when its node is already settled: a
// node's lower-cost entry has a key no larger (the heuristic term is the
// same) and the same node index, so it pops no later, and whichever of the
// two pops first settles the node at the distance kept in state, not in the
// entry. Deletion stays lazy, so Pushes counts what it always did.
func (s *Search) search(limit int64) (int32, Stats, error) {
	if s.frame != nil {
		s.epoch = s.frame.next.Add(epochStep)
	} else if s.epoch += epochStep; s.epoch == 0 { // wrapped: no stale word may alias the new epochs
		clear(s.state[:cap(s.state)])
		s.epoch = epochStep
	}
	for _, t := range s.targets {
		ns := &s.state[s.index(t)]
		ns.setDist(math.Inf(1))
		ns.word = s.epoch | targetBit
	}
	var st Stats
	g, q := s.g, &s.q
	q.reset()
	for _, src := range s.connected {
		// A source is a node reached at distance zero from no predecessor.
		s.relax(0, s.index(src), 0, 0, src.X, src.Y, src.Layer, &st)
	}

	row, plane := int32(s.fw), int32(s.fw*s.fh)
	reached := int32(-1)
	err := errUnreachable
	for !q.empty() {
		it := q.pop()
		if s.trace != nil {
			s.trace(false, it)
		}
		i := it.node
		ns := &s.state[i]
		if ns.word&settledBit != 0 {
			continue
		}
		ns.word |= settledBit
		st.Expansions++
		if ns.word&targetBit != 0 {
			reached, err = i, nil
			break
		}
		if limit >= 0 && st.Expansions > limit {
			err = &BudgetError{}
			break
		}
		p := s.point(i)
		d, x, y, l := ns.dist(), p.X, p.Y, p.Layer

		// Wire moves along the layer's preferred direction; an edge is named
		// by its lower end, so the backward one belongs to the neighbour.
		// The forward neighbour's parent lies behind it, the backward one's
		// ahead of it.
		dx, dy, step := 1, 0, int32(1)
		fwd, back := uint32(fromWest), uint32(fromEast)
		hasFwd, hasBack := x < s.win.Hi.X, x > s.win.Lo.X
		if g.Dir(l) == grid.Vertical {
			dx, dy, step = 0, 1, row
			fwd, back = fromSouth, fromNorth
			hasFwd, hasBack = y < s.win.Hi.Y, y > s.win.Lo.Y
		}
		if hasFwd {
			s.relax(fwd, i+step, d, s.wireCost(l, x, y), x+dx, y+dy, l, &st)
		}
		if hasBack {
			s.relax(back, i-step, d, s.wireCost(l, x-dx, y-dy), x-dx, y-dy, l, &st)
		}
		// Via moves between adjacent layers: an inlined table read at the
		// edge's demand, the formula past the table out of line.
		if l < g.L {
			s.reads++
			c, ok := s.f.ViaEntry(x, y, l)
			if !ok {
				c = s.f.ViaCost(x, y, l)
			}
			s.relax(fromBelow, i+plane, d, c, x, y, l+1, &st)
		}
		if l > 1 {
			s.reads++
			c, ok := s.f.ViaEntry(x, y, l-1)
			if !ok {
				c = s.f.ViaCost(x, y, l-1)
			}
			s.relax(fromAbove, i-plane, d, c, x, y, l-1, &st)
		}
	}
	s.f.Hits.Add(s.reads)
	s.reads = 0
	return reached, st, err
}

// wireCost prices one wire edge with a load from the cost field, counted
// in reads.
func (s *Search) wireCost(l, x, y int) float64 {
	s.reads++
	return s.f.Wire[l-1][s.f.WireSlot(l, x, y)]
}

// relax offers node j, at (x, y, l), the path through the neighbour in
// direction code at distance d over an edge of the given (finite) cost;
// code 0 seeds a source. A fresh node's word is rewritten whole, which
// drops any flags left by an earlier pass; otherwise the flags stay and
// only the parent code changes.
func (s *Search) relax(code uint32, j int32, d, cost float64, x, y, l int, st *Stats) {
	ns, nd := &s.state[j], d+cost
	w := ns.word
	if fresh := w < s.epoch; fresh || nd < ns.dist() {
		if fresh {
			w = s.epoch
		}
		ns.setDist(nd)
		ns.word = w&^parentMask | code
		it := qItem{k: math.Float64bits(nd + s.heuristic(x, y, l)), node: j}
		if s.trace != nil {
			s.trace(true, it)
		}
		s.q.push(it)
		st.Pushes++
	} else if p := w & parentMask; nd == ns.dist() && cost > 0 && p != 0 && code < p {
		// Canonical parent rule: among equal-cost predecessors the
		// smallest node index — the smallest code — wins, independent of
		// relaxation order. (cost > 0 keeps the parent pointers acyclic;
		// sources keep their 0 root code.)
		ns.word = w&^parentMask | code
	}
}

// reconstruct walks the parent chain from end back to a source. Each step
// is one grid edge, added to the route, and every node of the chain that
// has a parent joins the source list of the next pass. Those are exactly
// the chain's nodes not in the list already: every listed node was seeded
// as a source at distance zero with code 0, and no positive edge cost
// improves on zero.
func (s *Search) reconstruct(end int32) {
	row, plane := int32(s.fw), int32(s.fw*s.fh)
	off := [...]int32{fromBelow: -plane, fromSouth: -row, fromWest: -1, fromEast: 1, fromNorth: row, fromAbove: plane}
	i, prev := end, s.point(end)
	for code := s.state[i].word & parentMask; code != 0; code = s.state[i].word & parentMask {
		s.connected = append(s.connected, prev)
		i += off[code]
		cur := s.point(i)
		if cur.Layer == prev.Layer {
			s.b.Seg(cur.Layer, prev.P(), cur.P())
		} else {
			s.b.Via(cur.X, cur.Y, min(prev.Layer, cur.Layer), max(prev.Layer, cur.Layer))
		}
		prev = cur
	}
}
