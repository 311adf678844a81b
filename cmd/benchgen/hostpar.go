package main

import (
	"fmt"
	"runtime"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/gpu"
	"fastgr/internal/grid"
	"fastgr/internal/maze"
	"fastgr/internal/pattern"
	"fastgr/internal/patterngpu"
	"fastgr/internal/route"
	"fastgr/internal/stt"
)

// hostparScale pins the workload so numbers stay comparable across commits
// (it matches the bench_test.go micro-benchmark fixtures and the recorded
// seed baseline).
const hostparScale = 0.003

// seedMazeBaseline is the seed commit's BenchmarkMazeRoute (the same 50-net
// 18test5m workload the maze entries below run) measured before the
// host-parallel execution layer landed: per-call search-state allocation and
// a container/heap-based priority queue.
var seedMazeBaseline = hostparEntry{NsPerOp: 13680918, AllocsPerOp: 108449, BytesPerOp: 3400272}

type hostparEntry struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`

	// Worker-sweep bookkeeping (pattern_batch entries only). A sweep point
	// asking for more workers than GOMAXPROCS can actually run is recorded
	// as skipped instead of being measured: its timing would say nothing
	// about scaling, only about oversubscription on this host.
	Workers          int    `json:"workers,omitempty"`
	EffectiveWorkers int    `json:"effective_workers,omitempty"`
	Skipped          bool   `json:"skipped,omitempty"`
	SkipReason       string `json:"skip_reason,omitempty"`
}

func entry(r testing.BenchmarkResult) hostparEntry {
	return hostparEntry{
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

type hostparReport struct {
	Design     string  `json:"design"`
	Scale      float64 `json:"scale"`
	GoMaxProcs int     `json:"gomaxprocs"`
	// SeedMazeBaseline is the pre-optimization reference ("before");
	// everything else is measured by this run ("after").
	SeedMazeBaseline hostparEntry            `json:"seed_maze_baseline"`
	MazeFresh        hostparEntry            `json:"maze_fresh"`
	MazeReused       hostparEntry            `json:"maze_reused_scratch"`
	PatternBatch     map[string]hostparEntry `json:"pattern_batch_by_workers"`

	// Meta fingerprints the measurement host for -regress (stamp.go).
	Meta BenchMeta `json:"meta"`
}

// runHostpar measures the host-parallel execution micro-benchmarks — maze
// rerouting with fresh vs. reused scratch, and batch pattern solving by
// worker count — and writes them as JSON (stdout or -o).
func runHostpar(out string) error {
	d := design.MustGenerate("18test5m", hostparScale)
	g := grid.NewFromDesign(d)

	// Maze workload: the bench_test.go BenchmarkMazeScratch fixture, on its
	// own graph, whose cost field the searches read.
	mg := grid.NewFromDesign(d)
	mg.WarmCostCache()
	nets := d.Nets[:50]
	pins := make([][]geom.Point3, len(nets))
	wins := make([]geom.Rect, len(nets))
	for i, n := range nets {
		pins[i] = route.PinTerminals(stt.Build(n))
		wins[i] = n.BBox().Inflate(4).ClampTo(g.W, g.H)
	}
	mazeRound := func(b *testing.B, s *maze.Search) {
		for j := range nets {
			var err error
			if s != nil {
				_, _, err = s.RouteNet(mg, nets[j].ID, pins[j], wins[j])
			} else {
				_, _, err = maze.RouteNet(mg, nets[j].ID, pins[j], wins[j])
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	rep := hostparReport{
		Design:           "18test5m",
		Scale:            hostparScale,
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		SeedMazeBaseline: seedMazeBaseline,
		PatternBatch:     map[string]hostparEntry{},
	}
	rep.MazeFresh = entry(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mazeRound(b, nil)
		}
	}))
	rep.MazeReused = entry(testing.Benchmark(func(b *testing.B) {
		s := maze.NewSearch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mazeRound(b, s)
		}
	}))

	// Pattern workload: one conflict-free 200-net batch.
	trees := make([]*stt.Tree, 0, 200)
	for _, n := range d.Nets[:200] {
		trees = append(trees, stt.Build(n))
	}
	for _, workers := range []int{1, 2, 4} {
		key := fmt.Sprintf("workers=%d", workers)
		if mp := runtime.GOMAXPROCS(0); mp < workers {
			rep.PatternBatch[key] = hostparEntry{
				Workers:          workers,
				EffectiveWorkers: mp,
				Skipped:          true,
				SkipReason: fmt.Sprintf(
					"GOMAXPROCS=%d cannot run %d workers in parallel; timing would measure oversubscription, not scaling", mp, workers),
			}
			continue
		}
		r := patterngpu.New(gpu.RTX3090(), pattern.Config{Mode: pattern.LShape})
		r.Workers = workers
		e := entry(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.RouteBatch(g, trees)
			}
		}))
		e.Workers = workers
		e.EffectiveWorkers = workers
		rep.PatternBatch[key] = e
	}

	rep.Meta = currentBenchMeta()
	return writeRecord(out, "host-parallel benchmark record", rep, nil)
}
