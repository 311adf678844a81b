package patterngpu

import (
	"math/bits"
	"reflect"
	"testing"
	"time"

	"fastgr/internal/design"
	"fastgr/internal/gpu"
	"fastgr/internal/grid"
	"fastgr/internal/obs"
	"fastgr/internal/pattern"
	"fastgr/internal/route"
	"fastgr/internal/stt"
)

func setup(t *testing.T) (*grid.Graph, []*stt.Tree) {
	t.Helper()
	d := design.MustGenerate("18test5m", 0.002)
	g := grid.NewFromDesign(d)
	trees := make([]*stt.Tree, 0, 120)
	for _, n := range d.Nets[:120] {
		trees = append(trees, stt.Build(n))
	}
	return g, trees
}

// TestGPUResultsMatchCPU runs each batch at 1, 2 and 8 host workers, so
// under -race the per-worker solver scratch is shared the way production
// shares it, and every worker count must return the CPU path's routes.
func TestGPUResultsMatchCPU(t *testing.T) {
	g, trees := setup(t)
	for _, cfg := range []pattern.Config{
		{Mode: pattern.LShape},
		{Mode: pattern.Hybrid, Selection: true, T1: 4, T2: 50},
	} {
		var kernel time.Duration
		for _, workers := range []int{1, 2, 8} {
			r := New(gpu.RTX3090(), cfg)
			r.Workers = workers
			br := r.RouteBatch(g, trees)
			if len(br.Results) != len(trees) {
				t.Fatalf("got %d results for %d trees", len(br.Results), len(trees))
			}
			if workers > 1 && br.KernelTime != kernel {
				t.Fatalf("%d workers: kernel time %v, 1 worker %v", workers, br.KernelTime, kernel)
			}
			kernel = br.KernelTime
			var cpu pattern.Solver
			for i, tree := range trees {
				cpuRes := cpu.SolveCPU(g, tree, cfg)
				gpuRes := br.Results[i]
				if cpuRes.Cost != gpuRes.Cost || !reflect.DeepEqual(cpuRes.Route, gpuRes.Route) {
					t.Fatalf("net %d mode %v workers %d: CPU cost %v, GPU cost %v",
						tree.NetID, cfg.Mode, workers, cpuRes.Cost, gpuRes.Cost)
				}
				if err := gpuRes.Route.Validate(g, route.PinTerminals(tree)); err != nil {
					t.Fatalf("net %d: %v", tree.NetID, err)
				}
			}
		}
	}
}

func TestKernelTimeAdvancesClock(t *testing.T) {
	g, trees := setup(t)
	r := New(gpu.RTX3090(), pattern.Config{Mode: pattern.LShape})
	br := r.RouteBatch(g, trees)
	if br.KernelTime <= 0 {
		t.Fatal("kernel time not positive")
	}
	if r.Dev.SimTime() != br.KernelTime {
		t.Fatalf("device clock %v != kernel time %v", r.Dev.SimTime(), br.KernelTime)
	}
	st := r.Dev.Stats()
	if st.Kernels != 1 || st.Blocks != int64(len(trees)) {
		t.Fatalf("stats: %+v", st)
	}
	if st.Ops == 0 || st.BytesMoved == 0 {
		t.Fatal("ops/bytes not accounted")
	}
	if br.SeqOps != st.Ops {
		t.Fatalf("SeqOps %d != device ops %d", br.SeqOps, st.Ops)
	}
}

func TestGPUFasterThanModeledSequentialCPU(t *testing.T) {
	// The headline property behind Table VIII: batched block-parallel
	// execution beats one core doing the same ops sequentially.
	g, trees := setup(t)
	r := New(gpu.RTX3090(), pattern.Config{Mode: pattern.LShape})
	br := r.RouteBatch(g, trees)
	cpuTime := gpu.XeonGold6226R().SequentialTime(br.SeqOps)
	if br.KernelTime >= cpuTime {
		t.Fatalf("GPU kernel (%v) not faster than sequential CPU (%v)", br.KernelTime, cpuTime)
	}
	speedup := float64(cpuTime) / float64(br.KernelTime)
	if speedup < 1.5 || speedup > 500 {
		t.Fatalf("speedup %.1fx outside plausible band", speedup)
	}
}

func TestHybridKernelSlowerThanL(t *testing.T) {
	// The hybrid kernel evaluates (M+N)xLxLxL combinations vs LxL — its
	// kernels must be slower, mirroring 9.324x vs 2.070x in Table VIII.
	g, trees := setup(t)
	rl := New(gpu.RTX3090(), pattern.Config{Mode: pattern.LShape})
	lt := rl.RouteBatch(g, trees).KernelTime
	rh := New(gpu.RTX3090(), pattern.Config{Mode: pattern.Hybrid})
	ht := rh.RouteBatch(g, trees).KernelTime
	if ht <= lt {
		t.Fatalf("hybrid kernel (%v) not slower than L kernel (%v)", ht, lt)
	}
}

func TestSelectionReducesHybridKernelTime(t *testing.T) {
	g, trees := setup(t)
	full := New(gpu.RTX3090(), pattern.Config{Mode: pattern.Hybrid})
	ft := full.RouteBatch(g, trees).KernelTime
	sel := New(gpu.RTX3090(), pattern.Config{Mode: pattern.Hybrid, Selection: true, T1: 4, T2: 30})
	st := sel.RouteBatch(g, trees).KernelTime
	if st >= ft {
		t.Fatalf("selection (%v) did not speed up hybrid kernel (%v)", st, ft)
	}
}

func TestEmptyBatch(t *testing.T) {
	g, _ := setup(t)
	r := New(gpu.RTX3090(), pattern.Config{Mode: pattern.LShape})
	br := r.RouteBatch(g, nil)
	if len(br.Results) != 0 {
		t.Fatal("results for empty batch")
	}
	if br.KernelTime <= 0 {
		t.Fatal("even an empty kernel pays launch overhead")
	}
}

// programLog evaluates on the CPU and records each program's shape.
type programLog struct {
	pattern.CPUEvaluator
	flows  []int
	hybrid []bool
}

func (p *programLog) EvalProgram(prog *pattern.EdgeProgram, val []float64, choices []pattern.Choice) {
	p.flows = append(p.flows, prog.NumFlows())
	p.hybrid = append(p.hybrid, prog.Hybrid)
	p.CPUEvaluator.EvalProgram(prog, val, choices)
}

// TestBlockSpanScalesWithEdges checks the recorder's running block
// accounting against the per-net formula it accumulates — span
// Σ(stages·L + bitlen(flows)) + (edges+1)·L, bytes in Σ flows·(L+2L²)·8
// for hybrid edges and (L+L²)·8 for L edges, bytes out edges·L·8 — and that
// the span grows with the net's edges.
func TestBlockSpanScalesWithEdges(t *testing.T) {
	g, trees := setup(t)
	cfg := pattern.Config{Mode: pattern.Hybrid, Selection: true, T1: 4, T2: 50}
	L := int64(g.L)
	spans := map[int]int64{} // edges -> span
	var w worker
	for _, tree := range trees {
		_, block, moved := w.solve(g, tree, cfg)
		log := &programLog{}
		pattern.Solve(g, tree, cfg, log)
		span, in := (int64(len(log.flows))+1)*L, int64(0)
		for i, flows := range log.flows {
			stages, weights := int64(1), L+L*L
			if log.hybrid[i] {
				stages, weights = 2, int64(flows)*(L+2*L*L)
			}
			span += stages*L + int64(bits.Len(uint(flows)))
			in += weights * 8
		}
		if block.Span != span || moved != [2]int64{in, int64(len(log.flows)) * L * 8} {
			t.Fatalf("net %d: span %d bytes %v, formula %d [%d %d]",
				tree.NetID, block.Span, moved, span, in, int64(len(log.flows))*L*8)
		}
		spans[len(log.flows)] = span
	}
	if spans[1] == 0 || spans[4] == 0 || spans[4] <= spans[1] {
		t.Fatalf("span not monotone in edge count: %v", spans)
	}
}

func TestDeterministicKernelTiming(t *testing.T) {
	g, trees := setup(t)
	mk := func() time.Duration {
		r := New(gpu.RTX3090(), pattern.Config{Mode: pattern.Hybrid, Selection: true, T1: 4, T2: 40})
		return r.RouteBatch(g, trees).KernelTime
	}
	if mk() != mk() {
		t.Fatal("kernel timing not deterministic")
	}
}

// TestRouteBatchBaselineIdentical enforces the frozen-twin contract of
// the observability overhead guard: RouteBatch with a nil observer, an
// attached observer, and RouteBatchBaseline must produce bit-identical
// results, work counters and simulated kernel times.
func TestRouteBatchBaselineIdentical(t *testing.T) {
	g, trees := setup(t)
	cfg := pattern.Config{Mode: pattern.Hybrid, Selection: true, T1: 4, T2: 50}

	base := New(gpu.RTX3090(), cfg).RouteBatchBaseline(g, trees)
	off := New(gpu.RTX3090(), cfg).RouteBatch(g, trees)
	onR := New(gpu.RTX3090(), cfg)
	onR.Obs = &obs.Observer{Tracer: obs.NewTracer(1<<10, 1), Metrics: obs.NewRegistry()}
	on := onR.RouteBatch(g, trees)

	for name, br := range map[string]BatchResult{"disabled": off, "enabled": on} {
		if br.KernelTime != base.KernelTime || br.SeqOps != base.SeqOps {
			t.Fatalf("%s: kernel accounting diverged from baseline: %v/%d vs %v/%d",
				name, br.KernelTime, br.SeqOps, base.KernelTime, base.SeqOps)
		}
		for i := range trees {
			if br.Results[i].Cost != base.Results[i].Cost {
				t.Fatalf("%s: net %d cost diverged from baseline", name, i)
			}
		}
	}
}

// TestRouteBatchObservation checks the per-batch metrics: the kernel
// histogram sees the batch and the per-shape selection counters add up
// to the routed two-pin nets.
func TestRouteBatchObservation(t *testing.T) {
	g, trees := setup(t)
	r := New(gpu.RTX3090(), pattern.Config{Mode: pattern.Hybrid, Selection: true, T1: 4, T2: 50})
	r.Obs = &obs.Observer{Metrics: obs.NewRegistry()}
	br := r.RouteBatch(g, trees)

	var hybrid, total int64
	for _, res := range br.Results {
		hybrid += int64(res.HybridEdges)
		total += int64(res.Edges)
	}
	s := r.Obs.Metrics.Snapshot()
	if got := s.Counters[obs.MPatternHybrid]; got != hybrid {
		t.Errorf("hybrid counter = %d, want %d", got, hybrid)
	}
	if got := s.Counters[obs.MPatternLShape]; got != total-hybrid {
		t.Errorf("lshape counter = %d, want %d", got, total-hybrid)
	}
	if h := s.Histograms[obs.MKernelNs]; h.Count != 1 {
		t.Errorf("kernel histogram count = %d, want 1", h.Count)
	}
}
