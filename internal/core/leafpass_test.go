package core

import (
	"maps"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/grid"
	"fastgr/internal/sched"
)

// TestLeafGraphIsDisjointUnion checks the claim leafPass rests on: the
// one task graph an RRR iteration builds over every leaf's tasks is the
// disjoint union of the graphs each leaf would build alone. On the cut
// plan of 18test5m and of crossall, after the pattern stage, the
// iteration-0 leaf graph of every variant must have no edge between
// two leaves, and restricted to each leaf its edges — orientation
// included — and its root batch must equal that leaf's own graph.
func TestLeafGraphIsDisjointUnion(t *testing.T) {
	for _, d := range []*design.Design{design.MustGenerate("18test5m", testScale), CrossDesign()} {
		for _, v := range []Variant{CUGR, FastGRL, FastGRH} {
			opt := DefaultOptions(v)
			opt.T1, opt.T2 = 4, 40
			opt.Shards = 2
			r := &runner{d: d, opt: opt, g: grid.NewFromDesign(d)}
			if err := r.plan(); err != nil {
				t.Fatal(err)
			}
			r.planLeaves()
			if err := r.patternStage(nil); err != nil {
				t.Fatal(err)
			}
			violating, err := r.violatingNets()
			if err != nil {
				t.Fatal(err)
			}
			sched.SortNets(violating, opt.Scheme)
			tasks := make([]sched.Task, len(violating))
			for ti, n := range violating {
				tasks[ti] = sched.Task{ID: ti, BBox: r.mazeWindow(n), Payload: n}
			}
			intra, _ := r.split(tasks)
			leafOf := func(task sched.Task) int { return r.leafOf(task.Payload.(*design.Net).ID) }

			merged := byID(r.ripupGraph(intra))
			leaves := map[int][]sched.Task{}
			for _, task := range intra {
				leaves[leafOf(task)] = append(leaves[leafOf(task)], task)
			}
			union := graphByID{edges: map[[2]int]bool{}, roots: map[int]bool{}}
			for _, lt := range leaves {
				own := byID(r.ripupGraph(lt))
				maps.Copy(union.edges, own.edges)
				maps.Copy(union.roots, own.roots)
			}
			for e := range merged.edges {
				if leafOf(tasks[e[0]]) != leafOf(tasks[e[1]]) {
					t.Fatalf("%s/%v: edge %v joins leaves %d and %d", d.Name, v, e, leafOf(tasks[e[0]]), leafOf(tasks[e[1]]))
				}
			}
			if !maps.Equal(merged.edges, union.edges) || !maps.Equal(merged.roots, union.roots) {
				t.Fatalf("%s/%v: the merged graph (%d edges, %d roots) is not the union of the leaves' own graphs (%d edges, %d roots)",
					d.Name, v, len(merged.edges), len(merged.roots), len(union.edges), len(union.roots))
			}
			if d.Name == "18test5m" && (len(leaves) < 2 || len(merged.edges) == 0) {
				t.Fatalf("%s/%v: %d non-empty leaves, %d edges; the check is vacuous", d.Name, v, len(leaves), len(merged.edges))
			}
		}
	}
}

// graphByID is a task graph keyed by task ID rather than by list
// position: its oriented edges and its root batch.
type graphByID struct {
	edges map[[2]int]bool
	roots map[int]bool
}

func byID(g *sched.Graph) graphByID {
	out := graphByID{edges: map[[2]int]bool{}, roots: map[int]bool{}}
	for i, succ := range g.Succ {
		for _, j := range succ {
			out.edges[[2]int{g.Tasks[i].ID, g.Tasks[j].ID}] = true
		}
		if g.RootBatch != nil && g.RootBatch[i] {
			out.roots[g.Tasks[i].ID] = true
		}
	}
	return out
}
