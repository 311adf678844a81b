// Package sched implements the paper's heterogeneous task-graph scheduler
// (Section III-B): task conflict graphs from bounding-box overlap, the
// Algorithm-1 batch extraction that carves maximal conflict-free batches out
// of a sorted task list, root-batch selection, and the conflict-edge
// orientation that turns the conflict graph into an execution DAG (Fig. 6).
// It also provides the six inter-net sorting schemes of Table IV.
package sched

import (
	"fmt"
	"slices"
	"sort"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/obs"
)

// Scheme is an inter-net ordering strategy (Table IV).
type Scheme int

const (
	// PinsAsc sorts by ascending pin count.
	PinsAsc Scheme = iota
	// PinsDesc sorts by descending pin count.
	PinsDesc
	// HPWLAsc sorts by ascending bounding-box half perimeter — the scheme
	// the paper settles on (Section IV-C).
	HPWLAsc
	// HPWLDesc sorts by descending half perimeter.
	HPWLDesc
	// AreaAsc sorts by ascending bounding-box area.
	AreaAsc
	// AreaDesc sorts by descending bounding-box area.
	AreaDesc
)

// Schemes lists all sorting schemes in Table IV order.
var Schemes = []Scheme{PinsAsc, PinsDesc, HPWLAsc, HPWLDesc, AreaAsc, AreaDesc}

func (s Scheme) String() string {
	switch s {
	case PinsAsc:
		return "pins-asc"
	case PinsDesc:
		return "pins-desc"
	case HPWLAsc:
		return "hpwl-asc"
	case HPWLDesc:
		return "hpwl-desc"
	case AreaAsc:
		return "area-asc"
	case AreaDesc:
		return "area-desc"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// ParseScheme returns the scheme whose String is s.
func ParseScheme(s string) (Scheme, bool) {
	for _, sc := range Schemes {
		if sc.String() == s {
			return sc, true
		}
	}
	return 0, false
}

// SortNets orders nets in place by the scheme, breaking ties by net ID so
// every scheme is a deterministic total order.
func SortNets(nets []*design.Net, s Scheme) {
	key := func(n *design.Net) int {
		switch s {
		case PinsAsc:
			return len(n.Pins)
		case PinsDesc:
			return -len(n.Pins)
		case HPWLAsc:
			return n.HPWL()
		case HPWLDesc:
			return -n.HPWL()
		case AreaAsc:
			return n.BBox().Area()
		case AreaDesc:
			return -n.BBox().Area()
		}
		return 0
	}
	sort.SliceStable(nets, func(i, j int) bool {
		ki, kj := key(nets[i]), key(nets[j])
		if ki != kj {
			return ki < kj
		}
		return nets[i].ID < nets[j].ID
	})
}

// Task is one schedulable unit: a net (rip-up-and-reroute stage) or a whole
// batch (pattern stage), identified by its position in the sorted task list.
// Two tasks conflict when their bounding boxes overlap.
type Task struct {
	ID   int // index in the sorted task list (the paper's task ID)
	BBox geom.Rect
	// Payload lets callers attach the underlying net or batch.
	Payload interface{}
}

// ExtractBatches repeatedly applies Algorithm 1 to the task list (already in
// the desired sort order): each pass greedily collects tasks that do not
// conflict with anything already in the batch, yielding near-maximal
// independent sets. Every task lands in exactly one batch. Conflict checks
// go through the same 16x16 G-cell binning the conflict graph uses, so a
// pass costs near-linear time instead of the quadratic scan over all
// accepted boxes. The tasks a pass leaves are compacted in place, and the
// batches are consecutive windows of one array.
func ExtractBatches(tasks []Task) [][]Task {
	occ := newBinnedOccupancy(taskBounds(tasks))
	remaining := append([]Task(nil), tasks...)
	all := make([]Task, 0, len(tasks))
	var batches [][]Task
	for len(remaining) > 0 {
		occ.reset()
		start, rest := len(all), 0
		for _, t := range remaining {
			if occ.conflicts(t.BBox) {
				remaining[rest] = t
				rest++
				continue
			}
			all = append(all, t)
			occ.add(t.BBox)
		}
		batches = append(batches, all[start:len(all):len(all)])
		remaining = remaining[:rest]
	}
	return batches
}

// BatchIDs lists each batch's task IDs, the form the batch-barrier
// makespan model takes.
func BatchIDs(batches [][]Task) [][]int {
	ids := make([][]int, len(batches))
	for i, b := range batches {
		ids[i] = make([]int, len(b))
		for j, t := range b {
			ids[i][j] = t.ID
		}
	}
	return ids
}

// ObserveBatches records Algorithm-1 batch statistics into the registry:
// the batch-size histogram the paper's Fig. 9 plots, plus batch and task
// counters. A nil registry is a no-op; the batches are only read.
func ObserveBatches(m *obs.Registry, batches [][]Task) {
	if m == nil {
		return
	}
	h := m.Histogram(obs.MBatchSize, obs.BatchSizeBuckets)
	m.Counter(obs.MSchedBatches).Add(int64(len(batches)))
	for _, b := range batches {
		h.Observe(int64(len(b)))
	}
}

// taskBounds returns grid dimensions covering every task bbox, for callers
// that do not know the grid (ExtractBatches).
func taskBounds(tasks []Task) (w, h int) {
	for _, t := range tasks {
		w = geom.Max(w, t.BBox.Hi.X+1)
		h = geom.Max(h, t.BBox.Hi.Y+1)
	}
	return w, h
}

// binShift sets the spatial bin size used by conflict detection: 16x16
// G-cell bins, matching the conflict-graph construction.
const binShift = 4

// binnedOccupancy is an incremental set of committed bounding boxes with
// binned conflict queries: each box is registered in every 16x16 G-cell bin
// it touches, and a query only tests boxes sharing a bin with the probe.
type binnedOccupancy struct {
	binsX, binsY int
	bins         [][]geom.Rect
}

func newBinnedOccupancy(w, h int) *binnedOccupancy {
	binsX := (geom.Max(w, 1) >> binShift) + 1
	binsY := (geom.Max(h, 1) >> binShift) + 1
	return &binnedOccupancy{binsX: binsX, binsY: binsY, bins: make([][]geom.Rect, binsX*binsY)}
}

// reset empties the set, keeping the per-bin storage for reuse.
func (o *binnedOccupancy) reset() {
	for i := range o.bins {
		o.bins[i] = o.bins[i][:0]
	}
}

func (o *binnedOccupancy) add(r geom.Rect) {
	for by := geom.Max(0, r.Lo.Y>>binShift); by <= (r.Hi.Y>>binShift) && by < o.binsY; by++ {
		for bx := geom.Max(0, r.Lo.X>>binShift); bx <= (r.Hi.X>>binShift) && bx < o.binsX; bx++ {
			o.bins[by*o.binsX+bx] = append(o.bins[by*o.binsX+bx], r)
		}
	}
}

func (o *binnedOccupancy) conflicts(r geom.Rect) bool {
	for by := geom.Max(0, r.Lo.Y>>binShift); by <= (r.Hi.Y>>binShift) && by < o.binsY; by++ {
		for bx := geom.Max(0, r.Lo.X>>binShift); bx <= (r.Hi.X>>binShift) && bx < o.binsX; bx++ {
			for _, b := range o.bins[by*o.binsX+bx] {
				if r.Overlaps(b) {
					return true
				}
			}
		}
	}
	return false
}

// Graph is the oriented task graph: Succ[i] lists the tasks that must wait
// for task i, Indegree[i] the number of tasks i waits for.
type Graph struct {
	Tasks    []Task
	Succ     [][]int
	Indegree []int
	// RootBatch flags the tasks selected into the independent root batch.
	RootBatch []bool
	// Edges is the number of conflict pairs oriented.
	Edges int
}

// BuildGraph constructs the conflict graph over tasks (bounding-box overlap,
// found with a coarse spatial binning) and orients every conflict edge with
// the paper's two rules: root-batch tasks precede their non-root neighbors;
// between two non-root tasks the smaller task ID goes first. The root batch
// is the first Algorithm-1 batch. The result is acyclic by construction:
// every edge either leaves the root batch or goes from a smaller to a larger
// ID.
func BuildGraph(tasks []Task, gridW, gridH int) *Graph {
	g := &Graph{
		Tasks:     tasks,
		Succ:      make([][]int, len(tasks)),
		Indegree:  make([]int, len(tasks)),
		RootBatch: make([]bool, len(tasks)),
	}
	// Root batch: greedy independent set in task order (Algorithm 1, one
	// pass), with binned conflict checks.
	occ := newBinnedOccupancy(gridW, gridH)
	for i, t := range tasks {
		if !occ.conflicts(t.BBox) {
			g.RootBatch[i] = true
			occ.add(t.BBox)
		}
	}
	for _, pair := range conflictPairs(tasks, gridW, gridH) {
		i, j := pair[0], pair[1]
		var from, to int
		switch {
		case g.RootBatch[i]:
			from, to = i, j
		case g.RootBatch[j]:
			from, to = j, i
		case i < j:
			from, to = i, j
		default:
			from, to = j, i
		}
		g.Succ[from] = append(g.Succ[from], to)
		g.Indegree[to]++
		g.Edges++
	}
	// Pairs arrive in bin order; a successor list is its task's conflict
	// neighbours in ascending ID.
	for _, succ := range g.Succ {
		slices.Sort(succ)
	}
	return g
}

// conflictPairs finds all overlapping bbox pairs via binning: tasks are
// registered in coarse grid bins; only pairs sharing a bin are tested. A
// pair spanning several bins would surface once per shared bin, so it is
// emitted only from the bin holding the low corner of the two boxes'
// intersection — every overlapping pair comes out exactly once, with no
// candidate list to sort and compact. Pairs are in bin order, smaller
// index first.
func conflictPairs(tasks []Task, gridW, gridH int) [][2]int {
	binsX := (geom.Max(gridW, 1) >> binShift) + 1
	binsY := (geom.Max(gridH, 1) >> binShift) + 1
	bins := make([][]int, binsX*binsY)
	for i, t := range tasks {
		r := t.BBox
		for by := geom.Max(0, r.Lo.Y>>binShift); by <= (r.Hi.Y>>binShift) && by < binsY; by++ {
			for bx := geom.Max(0, r.Lo.X>>binShift); bx <= (r.Hi.X>>binShift) && bx < binsX; bx++ {
				bins[by*binsX+bx] = append(bins[by*binsX+bx], i)
			}
		}
	}
	var pairs [][2]int
	for bi, bin := range bins {
		bx, by := bi%binsX, bi/binsX
		for a, i := range bin {
			ri := tasks[i].BBox
			for _, j := range bin[a+1:] {
				rj := tasks[j].BBox
				if ri.Overlaps(rj) &&
					geom.Max(0, geom.Max(ri.Lo.X, rj.Lo.X)>>binShift) == bx &&
					geom.Max(0, geom.Max(ri.Lo.Y, rj.Lo.Y)>>binShift) == by {
					pairs = append(pairs, [2]int{i, j})
				}
			}
		}
	}
	return pairs
}

// TopoOrder returns a topological order of the graph; it panics if the
// orientation produced a cycle, which the construction rules make
// impossible short of a bug.
func (g *Graph) TopoOrder() []int {
	indeg := append([]int(nil), g.Indegree...)
	queue := make([]int, 0, len(g.Tasks))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, len(g.Tasks))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range g.Succ[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(order) != len(g.Tasks) {
		panic("sched: task graph has a cycle")
	}
	return order
}
