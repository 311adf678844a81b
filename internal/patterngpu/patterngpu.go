// Package patterngpu is the GPU-friendly pattern routing framework of
// Fig. 7: each Algorithm-1 batch of conflict-free multi-pin nets becomes one
// kernel invocation; inside the kernel every net maps to its own thread
// block, whose lanes evaluate the net's computation-graph flows (all L×L —
// or (M+N)×L×L×L — layer combinations at once).
//
// Functionally the flows are evaluated with the exact same code the CPU
// baseline uses (pattern.CPUEvaluator), so GPU-routed nets are
// bit-identical to CPU-routed nets; what this package adds is the workload
// accounting that drives the simulated device's clock — see package gpu for
// the substitution argument.
package patterngpu

import (
	"math/bits"
	"time"

	"fastgr/internal/fault"
	"fastgr/internal/gpu"
	"fastgr/internal/grid"
	"fastgr/internal/obs"
	"fastgr/internal/pattern"
	"fastgr/internal/stt"
	"fastgr/internal/taskflow"
)

// Router routes batches of nets on a simulated device.
type Router struct {
	Dev *gpu.Device
	Cfg pattern.Config
	// Workers is the number of host goroutines solving a batch's nets
	// concurrently (<= 1 means sequential). A batch is conflict-free and the
	// grid is read-only while it is being solved, so each net's flow
	// evaluation is independent; results, per-net work counters and the
	// simulated kernel time are bit-identical for every worker count.
	Workers int
	// Obs, when non-nil, records per-batch kernel spans on the
	// coordinator lane, the simulated kernel-time histogram, the per-shape
	// kernel selection counters and the solve fan-out's par.chunk spans on
	// the worker lanes. Observation is per batch and per chunk, never per
	// net, so the disabled-mode cost of RouteBatch is a handful of nil
	// checks; RouteBatchBaseline below is the frozen uninstrumented twin
	// that proves it.
	Obs *obs.Observer
	// Fault, when armed, contains per-net solve panics (retried) and
	// whole-kernel failures: a batch whose kernel fails degrades to the
	// CPU baseline path (sequential SolveCPU + CPUModel time) instead of
	// crashing. nil is the uncontained PR 4 behavior.
	Fault *fault.Containment
	// CPU supplies the modeled sequential time a degraded batch reports;
	// only read on the fallback path.
	CPU gpu.CPUModel

	// batches counts RouteBatch calls: the batch ordinal is the kernel
	// site's injection unit, a worker-count-invariant identity.
	batches int
	// workers is each host worker's scratch, indexed by the executor's
	// worker id and reused across batches.
	workers []worker
}

// worker is one host worker's reusable solver scratch and recorder.
type worker struct {
	solver pattern.Solver
	rec    recorder
}

// scratch returns the per-worker state, one entry per possible worker id.
func (r *Router) scratch() []worker {
	if n := max(r.Workers, 1); len(r.workers) < n {
		r.workers = make([]worker, n)
	}
	return r.workers
}

// solve routes one net on w's scratch and returns its result, the block's
// device workload and the bytes its flows move to and from the device.
func (w *worker) solve(g *grid.Graph, tree *stt.Tree, cfg pattern.Config) (pattern.Result, gpu.Block, [2]int64) {
	rec := &w.rec
	rec.reset(g.L)
	res := w.solver.Solve(g, tree, cfg, rec)
	return res, gpu.Block{Ops: res.Ops.Total() + rec.cpu.Ops.FlowOps, Span: rec.span}, [2]int64{rec.bytesIn, rec.bytesOut}
}

// New builds a Router with the given device spec and pattern configuration.
func New(spec gpu.Spec, cfg pattern.Config) *Router {
	return &Router{Dev: gpu.New(spec), Cfg: cfg}
}

// SetBatchBase offsets the batch-ordinal counter. Sharded routing runs one
// Router per leaf region; giving each a disjoint ordinal space keeps the
// kernel site's injection units distinct across leaves and invariant in the
// shard and worker counts.
func (r *Router) SetBatchBase(b int) { r.batches = b }

// BatchResult is the outcome of one kernel (one batch).
type BatchResult struct {
	Results []pattern.Result
	// KernelTime is the simulated device time of this batch's kernel.
	KernelTime time.Duration
	// SeqOps is the total DP work, the currency for the sequential-CPU
	// comparison (Table VIII's 9.324x).
	SeqOps int64
	// CPUFallback marks a batch whose kernel failed and was re-solved on
	// the CPU baseline path: Results and SeqOps are bit-identical to the
	// kernel's (same flow evaluation code), only KernelTime degrades to
	// the modeled sequential CPU time.
	CPUFallback bool
}

// RouteBatch routes one conflict-free batch of nets as a single kernel. The
// grid is only read; the caller commits the returned routes (the batch is
// conflict-free, so intra-batch ordering cannot change results).
func (r *Router) RouteBatch(g *grid.Graph, trees []*stt.Tree) BatchResult {
	ord := r.batches
	r.batches++
	sp := r.Obs.T().StartSpan("gpu.batch", obs.Coordinator)
	var br BatchResult
	if r.Fault.Enabled() {
		err := r.Fault.RunOnce(fault.SiteKernel, ord, obs.Coordinator, func() error {
			var solveErr error
			br, solveErr = r.routeBatch(g, trees, r.Obs)
			return solveErr
		})
		if err != nil {
			// Kernel failed (injected, panicked, or a net's solve exhausted
			// containment): degrade the whole batch to the CPU baseline.
			br = r.routeBatchCPU(g, trees)
		}
	} else {
		br, _ = r.routeBatch(g, trees, r.Obs)
	}
	sp.End()
	if m := r.Obs.M(); m != nil {
		m.Histogram(obs.MKernelNs).Observe(br.KernelTime.Nanoseconds())
		var hybrid, total int64
		for _, res := range br.Results {
			hybrid += int64(res.HybridEdges)
			total += int64(res.Edges)
		}
		m.Counter(obs.MPatternHybrid).Add(hybrid)
		m.Counter(obs.MPatternLShape).Add(total - hybrid)
	}
	return br
}

// RouteBatchBaseline is the frozen, uninstrumented twin of RouteBatch —
// the reference side of the observability overhead guard (cmd/benchgen
// -obs), which fails tier-1 if instrumented-but-disabled RouteBatch ever
// drifts more than 2% from it. It must stay bit-identical in results and
// kernel time (TestRouteBatchBaselineIdentical enforces that); it is not
// meant for production callers.
func (r *Router) RouteBatchBaseline(g *grid.Graph, trees []*stt.Tree) BatchResult {
	br, _ := r.routeBatch(g, trees, nil)
	return br
}

// routeBatch solves a batch as one kernel, its solve fan-out observed by
// o. With the fault layer armed each net's solve runs under it: a
// panicking or injection-hit net is retried on its own, and a net that
// exhausts containment fails the whole kernel (the caller then degrades
// the batch to the CPU path). The net's batch-local index is the injection
// unit — stable across worker counts.
func (r *Router) routeBatch(g *grid.Graph, trees []*stt.Tree, o *obs.Observer) (BatchResult, error) {
	// Materialize the cost field before fanning out: batch entry is a
	// single-threaded coordinator point, the only kind of place cache
	// writes are allowed; the solve phase below then reads it lock-free.
	// Shared by both RouteBatch and RouteBatchBaseline, so the overhead
	// guard comparison stays like-for-like.
	g.WarmCostCache()
	br := BatchResult{Results: make([]pattern.Result, len(trees))}
	blocks := make([]gpu.Block, len(trees))
	moved := make([][2]int64, len(trees))

	// Solve phase: every net writes only its own slot and its worker's
	// scratch, so the batch can fan out over host workers; the device
	// accounting below stays sequential (the simulated clock is shared
	// state) and sums per-net numbers in batch order, keeping the kernel
	// time independent of the worker count.
	ws := r.scratch()
	err := taskflow.For(r.Workers, len(trees), o, func(worker, i int) error {
		return r.Fault.Run(fault.SiteSolve, i, worker, func() error {
			br.Results[i], blocks[i], moved[i] = ws[worker].solve(g, trees[i], r.Cfg)
			return nil
		})
	})
	if err != nil {
		return BatchResult{}, err
	}
	var bytesIn, bytesOut int64
	for i := range blocks {
		br.SeqOps += blocks[i].Ops
		bytesIn += moved[i][0]
		bytesOut += moved[i][1]
	}
	br.KernelTime = r.Dev.LaunchKernel(blocks, bytesIn, bytesOut)
	return br, nil
}

// routeBatchCPU is the graceful-degradation path: the same per-net flow
// evaluation the kernel runs, executed sequentially on the host, so
// Results and SeqOps stay bit-identical to the kernel's; only the batch
// is billed at the modeled sequential CPU time instead of the device
// time.
func (r *Router) routeBatchCPU(g *grid.Graph, trees []*stt.Tree) BatchResult {
	g.WarmCostCache()
	br := BatchResult{Results: make([]pattern.Result, len(trees)), CPUFallback: true}
	w := &r.scratch()[0]
	for i, tree := range trees {
		var block gpu.Block
		br.Results[i], block, _ = w.solve(g, tree, r.Cfg)
		br.SeqOps += block.Ops
	}
	br.KernelTime = r.CPU.SequentialTime(br.SeqOps)
	return br
}

// recorder evaluates flows with the CPU evaluator while accounting the
// block's device workload program by program. span models the block's
// dependency chain: the net's two-pin edges run sequentially in DFS order;
// each edge contributes its min-plus stage depth (L per vector-matrix
// stage, doubled for two-stage Z flows) plus a log-depth merge over its
// candidate flows, and each tree node contributes an L-deep
// bottom-children reduction (the interval scan parallelizes over lanes;
// only the prefix-min depth is serial). bytesIn estimates the host->device
// bytes of the flow weights (float64 W1/W2/W3 entries), bytesOut the
// L-entry result of every edge.
type recorder struct {
	cpu                     pattern.CPUEvaluator
	span, bytesIn, bytesOut int64
}

// reset starts a net: its root's reduction is the one node term no edge
// brings.
func (r *recorder) reset(L int) {
	r.cpu.Ops = pattern.Ops{}
	r.span, r.bytesIn, r.bytesOut = int64(L), 0, 0
}

func (r *recorder) EvalProgram(p *pattern.EdgeProgram, val []float64, choices []pattern.Choice) {
	r.cpu.EvalProgram(p, val, choices)
	L, flows := int64(p.L), int64(p.NumFlows())
	stages, weights := int64(1), L+L*L
	if p.Hybrid {
		stages, weights = 2, flows*(L+2*L*L)
	}
	r.span += stages*L + int64(bits.Len(uint(flows))) + L
	r.bytesIn += weights * 8
	r.bytesOut += L * 8
}
