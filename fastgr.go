// Package fastgr is a Go reproduction of "FastGR: Global Routing on CPU-GPU
// with Heterogeneous Task Graph Scheduler" (Liu et al., DATE 2022 / TCAD'23):
// a two-stage global router with GPU-friendly pattern routing kernels
// (L-shape, Z-shape and hybrid-shape with selection) and a task-graph
// scheduler for the rip-up-and-reroute iterations.
//
// This top-level package is a thin facade over the implementation packages;
// see DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
//
//	d, _ := fastgr.GenerateBenchmark("18test5m", 0.01)
//	res, _ := fastgr.Route(d, fastgr.DefaultOptions(fastgr.FastGRH))
//	fmt.Println(res.Report.Quality, res.Report.Times.Total)
package fastgr

import (
	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/dr"
)

// Router variants, matching the paper's evaluation.
const (
	// CUGR is the sequential baseline: CPU L-shape pattern routing and
	// rip-up-and-reroute in Algorithm-1 batch order, timed as
	// batch-barrier parallel.
	CUGR = core.CUGR
	// FastGRL is the runtime-oriented variant: GPU L-shape kernel plus the
	// task-graph scheduler.
	FastGRL = core.FastGRL
	// FastGRH is the quality-oriented variant: GPU hybrid-shape kernel with
	// selection plus the task-graph scheduler.
	FastGRH = core.FastGRH
)

// Re-exported core types; consult the internal packages for the full API
// surface (grid graphs, Steiner trees, pattern kernels, schedulers).
type (
	// Variant selects a router configuration.
	Variant = core.Variant
	// Options configures a routing run.
	Options = core.Options
	// Result is a routed design plus its report.
	Result = core.Result
	// Report carries quality metrics and modeled stage times.
	Report = core.Report
	// Design is a global-routing instance.
	Design = design.Design
	// DRMetrics is the detailed-routing evaluation of a solution.
	DRMetrics = dr.Metrics
)

// DefaultOptions returns the paper-faithful configuration for a variant.
func DefaultOptions(v Variant) Options { return core.DefaultOptions(v) }

// Route runs the full two-stage global routing flow on a design.
func Route(d *Design, opt Options) (*Result, error) { return core.Route(d, opt) }

// GenerateBenchmark builds a synthetic twin of an ICCAD-2019 benchmark
// ("18test5" ... "19test9m") at the given scale in (0, 1].
func GenerateBenchmark(name string, scale float64) (*Design, error) {
	return design.Generate(name, scale)
}

// BenchmarkNames lists the twelve supported benchmark names.
func BenchmarkNames() []string { return design.AllNames() }

// EvaluateDetailedRouting runs the track-assignment detailed-routing
// evaluator over a routing result (the Table X metric set).
func EvaluateDetailedRouting(res *Result) DRMetrics {
	return dr.Evaluate(res.Grid, res.Routes)
}
