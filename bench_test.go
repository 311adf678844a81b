// Benchmarks regenerating every table and figure of the paper's evaluation
// (one testing.B benchmark per table/figure; see cmd/experiments for the
// full-size run) plus micro-benchmarks of the core kernels. Table-level
// benchmarks run at a reduced scale on a design subset so the whole suite
// completes in minutes; absolute times therefore differ from the full
// experiments, but every paper-shape relation (who wins, by what factor) is
// asserted by the unit tests and recorded in EXPERIMENTS.md.
package fastgr_test

import (
	"fmt"
	"io"
	"testing"

	"fastgr"
	"fastgr/internal/bench"
	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/gpu"
	"fastgr/internal/grid"
	"fastgr/internal/maze"
	"fastgr/internal/pattern"
	"fastgr/internal/patterngpu"
	"fastgr/internal/route"
	"fastgr/internal/sched"
	"fastgr/internal/stt"
)

// benchCfg keeps table benchmarks tractable: the smallest design pair at a
// small scale.
func benchCfg() bench.Config {
	return bench.Config{Scale: 0.003, Designs: []string{"18test5", "18test5m"}}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := bench.NewSuite(benchCfg())
		rows := bench.TableIII(s)
		bench.PrintTableIII(io.Discard, rows)
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := bench.NewSuite(bench.Config{
			Scale:   0.003,
			Designs: []string{"19test9", "19test7", "19test9m"},
		})
		bench.PrintFig3(io.Discard, bench.Fig3(s))
	}
}

func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := bench.NewSuite(bench.Config{Scale: 0.003, Designs: []string{"18test10", "18test10m"}})
		bench.PrintTableV(io.Discard, bench.TableV(s))
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := bench.NewSuite(bench.Config{Scale: 0.003, Designs: []string{"18test5m"}})
		bench.PrintFig12(io.Discard, bench.Fig12(s))
	}
}

func BenchmarkTableVI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := bench.NewSuite(benchCfg())
		bench.PrintTableVI(io.Discard, bench.TableVI(s))
	}
}

func BenchmarkTableVII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := bench.NewSuite(benchCfg())
		bench.PrintTableVII(io.Discard, bench.TableVII(s))
	}
}

func BenchmarkTableVIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := bench.NewSuite(benchCfg())
		bench.PrintTableVIII(io.Discard, bench.TableVIII(s))
	}
}

func BenchmarkTableIX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := bench.NewSuite(benchCfg())
		bench.PrintTableIX(io.Discard, bench.TableIX(s))
	}
}

func BenchmarkTableX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := bench.NewSuite(benchCfg())
		bench.PrintTableX(io.Discard, bench.TableX(s))
	}
}

// ----------------------------------------------------------- micro-benches

func microSetup(b *testing.B) (*grid.Graph, []*stt.Tree) {
	b.Helper()
	d := design.MustGenerate("18test5m", 0.003)
	g := grid.NewFromDesign(d)
	trees := make([]*stt.Tree, 0, 200)
	for _, n := range d.Nets[:200] {
		trees = append(trees, stt.Build(n))
	}
	return g, trees
}

// BenchmarkLShapePatternCPU measures the sequential L-shape DP — the
// baseline side of Table VIII's 9.324x.
func BenchmarkLShapePatternCPU(b *testing.B) {
	g, trees := microSetup(b)
	cfg := pattern.Config{Mode: pattern.LShape}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range trees {
			pattern.SolveCPU(g, t, cfg)
		}
	}
}

// BenchmarkHybridPatternCPU measures the sequential hybrid-shape DP.
func BenchmarkHybridPatternCPU(b *testing.B) {
	g, trees := microSetup(b)
	cfg := pattern.Config{Mode: pattern.Hybrid, Selection: true, T1: 4, T2: 30}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range trees {
			pattern.SolveCPU(g, t, cfg)
		}
	}
}

// BenchmarkGPUPatternBatch measures the batched kernel path (functional
// evaluation plus the device timing model).
func BenchmarkGPUPatternBatch(b *testing.B) {
	g, trees := microSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := patterngpu.New(gpu.RTX3090(), pattern.Config{Mode: pattern.LShape})
		r.RouteBatch(g, trees)
	}
}

// BenchmarkMazeRoute measures windowed 3-D Dijkstra rerouting.
func BenchmarkMazeRoute(b *testing.B) {
	d := design.MustGenerate("18test5m", 0.003)
	g := grid.NewFromDesign(d)
	g.WarmCostCache()
	nets := d.Nets[:50]
	pins := make([][]geom.Point3, len(nets))
	wins := make([]geom.Rect, len(nets))
	for i, n := range nets {
		pins[i] = route.PinTerminals(stt.Build(n))
		wins[i] = n.BBox().Inflate(4).ClampTo(g.W, g.H)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range nets {
			if _, _, err := maze.RouteNet(g, nets[j].ID, pins[j], wins[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPatternStageExec measures host-parallel batch pattern solving:
// the same batch solved by 1, 2 and 4 executor workers. Results are
// bit-identical across sub-benchmarks; only wall-clock moves.
func BenchmarkPatternStageExec(b *testing.B) {
	g, trees := microSetup(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r := patterngpu.New(gpu.RTX3090(), pattern.Config{Mode: pattern.LShape})
			r.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.RouteBatch(g, trees)
			}
		})
	}
}

// BenchmarkMazeScratch compares repeated RouteNet calls on the same windows
// with a fresh search state per call (the seed behaviour) against one
// reusable maze.Search — the allocs/op column is the point.
func BenchmarkMazeScratch(b *testing.B) {
	d := design.MustGenerate("18test5m", 0.003)
	g := grid.NewFromDesign(d)
	g.WarmCostCache()
	nets := d.Nets[:50]
	pins := make([][]geom.Point3, len(nets))
	wins := make([]geom.Rect, len(nets))
	for i, n := range nets {
		pins[i] = route.PinTerminals(stt.Build(n))
		wins[i] = n.BBox().Inflate(4).ClampTo(g.W, g.H)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range nets {
				if _, _, err := maze.RouteNet(g, nets[j].ID, pins[j], wins[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		s := maze.NewSearch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range nets {
				if _, _, err := s.RouteNet(g, nets[j].ID, pins[j], wins[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSteinerTree measures tree construction plus edge shifting.
func BenchmarkSteinerTree(b *testing.B) {
	d := design.MustGenerate("18test8", 0.003)
	g := grid.NewFromDesign(d)
	est := g.Estimator2D()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range d.Nets[:500] {
			t := stt.Build(n)
			t.Shift(est)
		}
	}
}

// BenchmarkBatchExtraction measures Algorithm 1 over a full design.
func BenchmarkBatchExtraction(b *testing.B) {
	d := design.MustGenerate("18test8m", 0.004)
	nets := append([]*design.Net(nil), d.Nets...)
	sched.SortNets(nets, sched.HPWLAsc)
	tasks := make([]sched.Task, len(nets))
	for i, n := range nets {
		tasks[i] = sched.Task{ID: i, BBox: n.BBox()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.ExtractBatches(tasks)
	}
}

// BenchmarkConflictGraph measures conflict-graph construction + orientation.
func BenchmarkConflictGraph(b *testing.B) {
	d := design.MustGenerate("18test8m", 0.004)
	tasks := make([]sched.Task, len(d.Nets))
	for i, n := range d.Nets {
		tasks[i] = sched.Task{ID: i, BBox: n.BBox()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.BuildGraph(tasks, d.GridW, d.GridH)
	}
}

// BenchmarkMinPlusVecMat measures the inner min-plus kernel (eq. 7).
func BenchmarkMinPlusVecMat(b *testing.B) {
	const L = 9
	w := make([]float64, L)
	m := make([]float64, L*L)
	for i := range w {
		w[i] = float64(i)
	}
	for i := range m {
		m[i] = float64(i % 17)
	}
	out, arg := make([]float64, L), make([]int, L)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pattern.MinPlusVecMat(w, m, L, out, arg)
	}
}

// BenchmarkEndToEndFastGRH measures a whole quality-oriented routing run.
func BenchmarkEndToEndFastGRH(b *testing.B) {
	d := design.MustGenerate("18test5m", 0.003)
	opt := fastgr.DefaultOptions(fastgr.FastGRH)
	opt.T1, opt.T2 = 5, 27
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fastgr.Route(d, opt); err != nil {
			b.Fatal(err)
		}
	}
}
