package sched

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fastgr/internal/geom"
)

// bruteGraph is BuildGraph by the book: the root batch is a quadratic greedy
// independent set, every pair is tested, and each task's successors come
// out in ascending ID because j ascends.
func bruteGraph(tasks []Task) *Graph {
	n := len(tasks)
	g := &Graph{Tasks: tasks, Succ: make([][]int, n), Indegree: make([]int, n), RootBatch: make([]bool, n)}
	for i := range tasks {
		free := true
		for j := 0; j < i; j++ {
			if g.RootBatch[j] && tasks[i].BBox.Overlaps(tasks[j].BBox) {
				free = false
				break
			}
		}
		g.RootBatch[i] = free
	}
	for from := range tasks {
		for to := range tasks {
			if from == to || !tasks[from].BBox.Overlaps(tasks[to].BBox) {
				continue
			}
			// from precedes to when it is the root-batch side of the pair,
			// or neither is and it has the smaller ID.
			if g.RootBatch[from] || (!g.RootBatch[to] && from < to) {
				g.Succ[from] = append(g.Succ[from], to)
				g.Indegree[to]++
				g.Edges++
			}
		}
	}
	return g
}

// randomTasks draws boxes of mixed sizes — points, slivers spanning many
// bins, boxes flush against the grid edge — dense enough to conflict.
func randomTasks(rng *rand.Rand, n, w, h int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		lo := geom.Point{X: rng.Intn(w), Y: rng.Intn(h)}
		span := []int{0, 3, 20, 70}[rng.Intn(4)]
		hi := geom.Point{X: geom.Min(w-1, lo.X+rng.Intn(span+1)), Y: geom.Min(h-1, lo.Y+rng.Intn(span+1))}
		tasks[i] = Task{ID: i, BBox: geom.Rect{Lo: lo, Hi: hi}}
	}
	return tasks
}

// TestBuildGraphMatchesBruteForce: on random rectangle sets the binned
// construction equals the quadratic reference field for field, and
// conflictPairs emits every overlapping pair exactly once.
func TestBuildGraphMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 60; trial++ {
		w, h := 1+rng.Intn(150), 1+rng.Intn(150)
		tasks := randomTasks(rng, rng.Intn(120), w, h)

		var want [][2]int
		for i := range tasks {
			for j := i + 1; j < len(tasks); j++ {
				if tasks[i].BBox.Overlaps(tasks[j].BBox) {
					want = append(want, [2]int{i, j})
				}
			}
		}
		got := conflictPairs(tasks, w, h)
		slices.SortFunc(got, func(a, b [2]int) int { return slices.Compare(a[:], b[:]) })
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%dx%d, %d tasks): conflictPairs = %v, want %v", trial, w, h, len(tasks), got, want)
		}

		g, ref := BuildGraph(tasks, w, h), bruteGraph(tasks)
		if !reflect.DeepEqual(g.RootBatch, ref.RootBatch) {
			t.Fatalf("trial %d: RootBatch = %v, want %v", trial, g.RootBatch, ref.RootBatch)
		}
		if !reflect.DeepEqual(g.Indegree, ref.Indegree) || g.Edges != ref.Edges {
			t.Fatalf("trial %d: Indegree/Edges = %v/%d, want %v/%d", trial, g.Indegree, g.Edges, ref.Indegree, ref.Edges)
		}
		for i := range tasks {
			if !slices.Equal(g.Succ[i], ref.Succ[i]) {
				t.Fatalf("trial %d: Succ[%d] = %v, want %v", trial, i, g.Succ[i], ref.Succ[i])
			}
		}
	}
}

// bruteBatches is Algorithm 1 by the book: each pass scans every task left
// against every box already in the batch, and the tasks it skips form a
// fresh list for the next pass.
func bruteBatches(tasks []Task) [][]Task {
	var batches [][]Task
	for remaining := tasks; len(remaining) > 0; {
		var batch, rest []Task
		for _, t := range remaining {
			free := true
			for _, b := range batch {
				free = free && !t.BBox.Overlaps(b.BBox)
			}
			if free {
				batch = append(batch, t)
			} else {
				rest = append(rest, t)
			}
		}
		batches = append(batches, batch)
		remaining = rest
	}
	return batches
}

// TestExtractBatchesMatchesBruteForce: the in-place, binned extraction
// yields the reference's batches, and a caller appending to one batch can
// not write into the next.
func TestExtractBatchesMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 60; trial++ {
		tasks := randomTasks(rng, rng.Intn(150), 1+rng.Intn(150), 1+rng.Intn(150))
		got, want := ExtractBatches(tasks), bruteBatches(tasks)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d tasks): %d batches, want %d", trial, len(tasks), len(got), len(want))
		}
		for i, b := range got {
			if cap(b) != len(b) {
				t.Fatalf("trial %d: batch %d has capacity past its end, which the next batch owns", trial, i)
			}
		}
	}
}
