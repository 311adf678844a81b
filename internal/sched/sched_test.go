package sched

import (
	"reflect"
	"testing"
	"testing/quick"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/obs"
)

func mkNet(id, pins int, lo, hi geom.Point) *design.Net {
	n := &design.Net{ID: id, Name: "n"}
	n.Pins = append(n.Pins, design.Pin{Pos: lo, Layer: 1}, design.Pin{Pos: hi, Layer: 1})
	for len(n.Pins) < pins {
		n.Pins = append(n.Pins, design.Pin{Pos: lo, Layer: 2})
	}
	return n
}

func TestSortSchemes(t *testing.T) {
	nets := []*design.Net{
		mkNet(0, 2, geom.Point{X: 0, Y: 0}, geom.Point{X: 9, Y: 9}),  // hpwl 18, area 100
		mkNet(1, 5, geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 1}),  // hpwl 2, area 4
		mkNet(2, 3, geom.Point{X: 0, Y: 0}, geom.Point{X: 4, Y: 19}), // hpwl 23, area 100
	}
	cases := []struct {
		s    Scheme
		want []int // net IDs in sorted order
	}{
		{PinsAsc, []int{0, 2, 1}},
		{PinsDesc, []int{1, 2, 0}},
		{HPWLAsc, []int{1, 0, 2}},
		{HPWLDesc, []int{2, 0, 1}},
		{AreaAsc, []int{1, 0, 2}}, // tie 100 broken by ID
		{AreaDesc, []int{0, 2, 1}},
	}
	for _, c := range cases {
		ns := append([]*design.Net(nil), nets...)
		SortNets(ns, c.s)
		for i, want := range c.want {
			if ns[i].ID != want {
				t.Errorf("%v: position %d has net %d, want %d", c.s, i, ns[i].ID, want)
			}
		}
	}
}

func TestSchemeStrings(t *testing.T) {
	for _, s := range Schemes {
		if s.String() == "" {
			t.Error("empty scheme name")
		}
	}
	if Scheme(99).String() != "scheme(99)" {
		t.Error("unknown scheme string wrong")
	}
	if len(Schemes) != 6 {
		t.Fatalf("Table IV has 6 schemes, found %d", len(Schemes))
	}
}

func TestParseSchemeRoundTrips(t *testing.T) {
	for _, s := range Schemes {
		if got, ok := ParseScheme(s.String()); !ok || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s.String(), got, ok)
		}
	}
	if _, ok := ParseScheme("hpwl"); ok {
		t.Error("unknown scheme name accepted")
	}
}

func TestBatchIDs(t *testing.T) {
	tasks := []Task{taskAt(0, geom.Point{}, geom.Point{X: 4, Y: 4}), taskAt(1, geom.Point{X: 2, Y: 2}, geom.Point{X: 6, Y: 6}),
		taskAt(2, geom.Point{X: 10, Y: 10}, geom.Point{X: 12, Y: 12})}
	got := BatchIDs(ExtractBatches(tasks))
	if want := [][]int{{0, 2}, {1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("BatchIDs = %v, want %v", got, want)
	}
}

func taskAt(id int, lo, hi geom.Point) Task {
	return Task{ID: id, BBox: geom.NewRect(lo, hi)}
}

func TestExtractBatchesNoIntraBatchConflicts(t *testing.T) {
	tasks := []Task{
		taskAt(0, geom.Point{X: 0, Y: 0}, geom.Point{X: 4, Y: 4}),
		taskAt(1, geom.Point{X: 2, Y: 2}, geom.Point{X: 6, Y: 6}), // conflicts 0
		taskAt(2, geom.Point{X: 8, Y: 8}, geom.Point{X: 9, Y: 9}),
		taskAt(3, geom.Point{X: 3, Y: 3}, geom.Point{X: 5, Y: 5}), // conflicts 0,1
	}
	batches := ExtractBatches(tasks)
	total := 0
	for _, b := range batches {
		total += len(b)
		for i := 0; i < len(b); i++ {
			for j := i + 1; j < len(b); j++ {
				if b[i].BBox.Overlaps(b[j].BBox) {
					t.Fatalf("tasks %d,%d conflict inside one batch", b[i].ID, b[j].ID)
				}
			}
		}
	}
	if total != len(tasks) {
		t.Fatalf("batches cover %d of %d tasks", total, len(tasks))
	}
	// Greedy from sorted order: first batch is {0,2}.
	if len(batches[0]) != 2 || batches[0][0].ID != 0 || batches[0][1].ID != 2 {
		t.Fatalf("unexpected first batch: %+v", batches[0])
	}
}

func TestExtractBatchesProperty(t *testing.T) {
	f := func(raw []struct{ X, Y, W, H uint8 }) bool {
		if len(raw) > 60 {
			raw = raw[:60]
		}
		tasks := make([]Task, len(raw))
		for i, r := range raw {
			lo := geom.Point{X: int(r.X) % 100, Y: int(r.Y) % 100}
			hi := geom.Point{X: lo.X + int(r.W)%20, Y: lo.Y + int(r.H)%20}
			tasks[i] = taskAt(i, lo, hi)
		}
		batches := ExtractBatches(tasks)
		seen := map[int]bool{}
		for _, b := range batches {
			if len(b) == 0 {
				return false // empty batches would loop forever upstream
			}
			for i := range b {
				if seen[b[i].ID] {
					return false
				}
				seen[b[i].ID] = true
				for j := i + 1; j < len(b); j++ {
					if b[i].BBox.Overlaps(b[j].BBox) {
						return false
					}
				}
			}
		}
		return len(seen) == len(tasks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildGraphOrientationRules(t *testing.T) {
	tasks := []Task{
		taskAt(0, geom.Point{X: 0, Y: 0}, geom.Point{X: 4, Y: 4}),
		taskAt(1, geom.Point{X: 2, Y: 2}, geom.Point{X: 6, Y: 6}), // vs 0 and 3
		taskAt(2, geom.Point{X: 20, Y: 20}, geom.Point{X: 24, Y: 24}),
		taskAt(3, geom.Point{X: 5, Y: 5}, geom.Point{X: 7, Y: 7}), // vs 1
	}
	g := BuildGraph(tasks, 32, 32)
	// Root batch is greedy in order: 0 in; 1 conflicts 0 -> out; 2 in; 3
	// conflicts nothing in root (0 and 2)? bbox(3)=5..7 overlaps bbox(0)=0..4? no. So 3 in root.
	if !g.RootBatch[0] || g.RootBatch[1] || !g.RootBatch[2] || !g.RootBatch[3] {
		t.Fatalf("root batch wrong: %v", g.RootBatch)
	}
	// Edge 0-1: root->nonroot = 0->1. Edge 1-3: 3 in root -> 3->1.
	hasEdge := func(from, to int) bool {
		for _, v := range g.Succ[from] {
			if v == to {
				return true
			}
		}
		return false
	}
	if !hasEdge(0, 1) || hasEdge(1, 0) {
		t.Fatal("edge 0-1 misoriented")
	}
	if !hasEdge(3, 1) || hasEdge(1, 3) {
		t.Fatal("edge 1-3 misoriented")
	}
	if g.Edges != 2 {
		t.Fatalf("edges = %d, want 2", g.Edges)
	}
	if g.Indegree[1] != 2 {
		t.Fatalf("indegree of task 1 = %d, want 2", g.Indegree[1])
	}
}

func TestBuildGraphNonRootPairOrientation(t *testing.T) {
	// Three mutually overlapping tasks: only the first enters the root
	// batch; the 1-2 pair is non-root/non-root and goes small ID -> large.
	tasks := []Task{
		taskAt(0, geom.Point{X: 0, Y: 0}, geom.Point{X: 9, Y: 9}),
		taskAt(1, geom.Point{X: 1, Y: 1}, geom.Point{X: 8, Y: 8}),
		taskAt(2, geom.Point{X: 2, Y: 2}, geom.Point{X: 7, Y: 7}),
	}
	g := BuildGraph(tasks, 16, 16)
	found := false
	for _, v := range g.Succ[1] {
		if v == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("non-root pair 1-2 not oriented by task ID")
	}
	for _, v := range g.Succ[2] {
		if v == 1 {
			t.Fatal("backward edge 2->1 present")
		}
	}
}

func TestTopoOrderValid(t *testing.T) {
	f := func(raw []struct{ X, Y, W, H uint8 }) bool {
		if len(raw) > 50 {
			raw = raw[:50]
		}
		tasks := make([]Task, len(raw))
		for i, r := range raw {
			lo := geom.Point{X: int(r.X) % 64, Y: int(r.Y) % 64}
			hi := geom.Point{X: lo.X + int(r.W)%16, Y: lo.Y + int(r.H)%16}
			tasks[i] = taskAt(i, lo, hi)
		}
		g := BuildGraph(tasks, 80, 80)
		order := g.TopoOrder()
		if len(order) != len(tasks) {
			return false
		}
		pos := make([]int, len(tasks))
		for i, u := range order {
			pos[u] = i
		}
		for u := range g.Succ {
			for _, v := range g.Succ[u] {
				if pos[u] >= pos[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestConflictPairsCompleteness(t *testing.T) {
	// Binning must find exactly the same pairs as the quadratic check,
	// including boxes spanning many bins.
	tasks := []Task{
		taskAt(0, geom.Point{X: 0, Y: 0}, geom.Point{X: 63, Y: 2}), // long horizontal
		taskAt(1, geom.Point{X: 30, Y: 0}, geom.Point{X: 33, Y: 40}),
		taskAt(2, geom.Point{X: 50, Y: 50}, geom.Point{X: 55, Y: 55}),
		taskAt(3, geom.Point{X: 0, Y: 1}, geom.Point{X: 1, Y: 90}),
		taskAt(4, geom.Point{X: 54, Y: 54}, geom.Point{X: 60, Y: 60}),
	}
	got := conflictPairs(tasks, 100, 100)
	want := map[[2]int]bool{}
	for i := range tasks {
		for j := i + 1; j < len(tasks); j++ {
			if tasks[i].BBox.Overlaps(tasks[j].BBox) {
				want[[2]int{i, j}] = true
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("binned pairs %v != brute-force %v", got, want)
	}
	for _, p := range got {
		if !want[p] {
			t.Fatalf("spurious pair %v", p)
		}
	}
}

func TestGraphOnGeneratedDesign(t *testing.T) {
	d := design.MustGenerate("18test8m", 0.002)
	nets := append([]*design.Net(nil), d.Nets[:300]...)
	SortNets(nets, HPWLAsc)
	tasks := make([]Task, len(nets))
	for i, n := range nets {
		tasks[i] = Task{ID: i, BBox: n.BBox(), Payload: n}
	}
	g := BuildGraph(tasks, d.GridW, d.GridH)
	g.TopoOrder() // must not panic
	if g.Edges == 0 {
		t.Fatal("no conflicts in a clustered design is implausible")
	}
	batches := ExtractBatches(tasks)
	if len(batches) < 2 {
		t.Fatal("expected multiple batches in a clustered design")
	}
}

// TestObserveBatches checks the batch-size histogram and batch counter,
// and that a nil registry is a no-op.
func TestObserveBatches(t *testing.T) {
	batches := [][]Task{
		make([]Task, 3),
		make([]Task, 1),
		make([]Task, 7),
	}
	ObserveBatches(nil, batches) // must not panic

	r := obs.NewRegistry()
	ObserveBatches(r, batches)
	s := r.Snapshot()
	if got := s.Counters[obs.MSchedBatches]; got != 3 {
		t.Errorf("batch counter = %d, want 3", got)
	}
	h := s.Histograms[obs.MBatchSize]
	if h.Count != 3 || h.Sum != 11 || h.Min != 1 || h.Max != 7 {
		t.Errorf("batch-size histogram = %+v, want count=3 sum=11 min=1 max=7", h)
	}
}
