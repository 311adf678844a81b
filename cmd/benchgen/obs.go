package main

import (
	"fmt"
	"time"

	"fastgr/internal/design"
	"fastgr/internal/gpu"
	"fastgr/internal/grid"
	"fastgr/internal/obs"
	"fastgr/internal/pattern"
	"fastgr/internal/patterngpu"
	"fastgr/internal/stt"
)

// maxDisabledOverheadPct is the observability tax budget: with no
// observer attached, the instrumented pattern stage may cost at most
// this much over the frozen uninstrumented twin (RouteBatchBaseline).
// tier1.sh runs `benchgen -obs` and fails the build past this line.
const maxDisabledOverheadPct = 2.0

type obsReport struct {
	Design  string  `json:"design"`
	Scale   float64 `json:"scale"`
	Workers int     `json:"workers"`
	// BaselineNsPerOp is RouteBatchBaseline — the uninstrumented twin,
	// measured in this same process so the comparison never crosses a
	// machine or compiler version.
	BaselineNsPerOp int64 `json:"baseline_ns_per_op"`
	// DisabledNsPerOp is the instrumented RouteBatch with no observer:
	// the hot path pays nil checks only.
	DisabledNsPerOp int64 `json:"disabled_ns_per_op"`
	// EnabledNsPerOp has the tracer on and the metrics registry attached.
	EnabledNsPerOp int64 `json:"enabled_ns_per_op"`

	DisabledOverheadPct    float64 `json:"disabled_overhead_pct"`
	EnabledOverheadPct     float64 `json:"enabled_overhead_pct"`
	MaxDisabledOverheadPct float64 `json:"max_disabled_overhead_pct"`

	// Meta fingerprints the measurement host for -regress (stamp.go).
	Meta BenchMeta `json:"meta"`
}

// minNsPerOp hand-rolls the timing instead of testing.Benchmark: a fixed
// iteration count, repetitions interleaved round-robin across all the
// compared variants (so clock-frequency drift hits every variant
// equally), and the minimum per variant. That is far more stable for an
// A/B overhead comparison than independently auto-tuned runs.
func minNsPerOp(reps, iters int, fns ...func()) []int64 {
	best := make([]int64, len(fns))
	for i, fn := range fns {
		fn() // warm up caches and the allocator once, untimed
		best[i] = 1<<63 - 1
	}
	for r := 0; r < reps; r++ {
		for i, fn := range fns {
			start := time.Now()
			for n := 0; n < iters; n++ {
				fn()
			}
			if ns := time.Since(start).Nanoseconds() / int64(iters); ns < best[i] {
				best[i] = ns
			}
		}
	}
	return best
}

// runObs measures the observability overhead on the pattern-stage batch
// workload (the BenchmarkPatternStageExec fixture) and writes the record
// as JSON. It returns an error — failing the build — when the
// disabled-mode overhead exceeds the budget.
func runObs(out string) error {
	const reps, iters = 8, 25
	d := design.MustGenerate("18test5m", hostparScale)
	g := grid.NewFromDesign(d)
	trees := make([]*stt.Tree, 0, 200)
	for _, n := range d.Nets[:200] {
		trees = append(trees, stt.Build(n))
	}
	newRouter := func() *patterngpu.Router {
		r := patterngpu.New(gpu.RTX3090(), pattern.Config{Mode: pattern.LShape})
		r.Workers = 4
		return r
	}

	rep := obsReport{
		Design:                 "18test5m",
		Scale:                  hostparScale,
		Workers:                4,
		MaxDisabledOverheadPct: maxDisabledOverheadPct,
	}

	base := newRouter()
	off := newRouter() // Obs stays nil: the disabled mode every user pays
	on := newRouter()
	on.Obs = &obs.Observer{
		Tracer:  obs.NewTracer(1<<16, on.Workers),
		Metrics: obs.NewRegistry(),
	}
	ns := minNsPerOp(reps, iters,
		func() { base.RouteBatchBaseline(g, trees) },
		func() { off.RouteBatch(g, trees) },
		func() { on.RouteBatch(g, trees) },
	)
	rep.BaselineNsPerOp, rep.DisabledNsPerOp, rep.EnabledNsPerOp = ns[0], ns[1], ns[2]

	pct := func(ns int64) float64 {
		return 100 * float64(ns-rep.BaselineNsPerOp) / float64(rep.BaselineNsPerOp)
	}
	rep.DisabledOverheadPct = pct(rep.DisabledNsPerOp)
	rep.EnabledOverheadPct = pct(rep.EnabledNsPerOp)

	rep.Meta = currentBenchMeta()
	var gate error
	if rep.DisabledOverheadPct > maxDisabledOverheadPct {
		gate = fmt.Errorf("disabled-mode observability overhead %.2f%% exceeds the %.1f%% budget (baseline %d ns/op, disabled %d ns/op)",
			rep.DisabledOverheadPct, maxDisabledOverheadPct,
			rep.BaselineNsPerOp, rep.DisabledNsPerOp)
	}
	return writeRecord(out, "observability overhead record", rep, gate)
}
