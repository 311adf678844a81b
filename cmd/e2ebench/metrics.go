package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef is one row of the ledger: the names and units here are the
// contract BENCHMARK.json repeats (the test pins the two together).
type metricDef struct {
	Name string
	Unit string
}

// modelUnit marks simulated-clock readings (GPU kernel model, makespan
// model, expansion cost model). They are pure functions of the input,
// repeat exactly, and are never summed with or compared against host
// wall time — hence a unit of their own rather than "ms".
const modelUnit = "model-ms"

// endToEnd lists what a user of `fastgr -guides` or `fastgrd` pays for.
// Every workload reports every row; see README.md for how each is
// defined on the route workloads and on daemon_mix.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"route_wall_s", "s"},
	{"route_cpu_s", "s"},
	{"peak_heap_mb", "MiB"},
	{"quality_score", "count"},
	{"modeled_total", modelUnit},
	{"nets_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"job_p95_s", "s"},
}

// perLayer lists the -trace metrics, prefix = module. A row a workload
// cannot measure (serve.* on a route workload, the sharded-only shard.*
// rows on a monolithic one) is reported as 0.
var perLayer = []metricDef{
	{"bench.trace_overhead_pct", "%"},

	{"core.plan_wall_ms", "ms"},
	{"core.pattern_wall_ms", "ms"},
	{"core.maze_wall_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.nets_to_ripup", "count"},
	{"core.rrr_iters", "count"},
	{"core.rrr_expansions", "count"},
	{"core.pattern_batches", "count"},
	{"core.hybrid_edges", "count"},

	{"design.generate_ms", "ms"},
	{"design.nets", "count"},
	{"design.write_ms", "ms"},
	{"design.read_ms", "ms"},

	{"stt.build_ms", "ms"},
	{"stt.shift_ms", "ms"},
	{"stt.ns_per_net", "ns"},

	{"sched.sort_batch_ms", "ms"},
	{"sched.batches", "count"},
	{"sched.graph_ms", "ms"},
	{"sched.conflict_edges", "count"},

	{"patterngpu.stage_ms", "ms"},
	{"patterngpu.ns_per_edge", "ns"},
	{"patterngpu.allocs_per_net", "count"},
	{"pattern.cpu_stage_ms", "ms"},
	{"pattern.hybrid_all_ms", "ms"},
	{"pattern.seq_ops", "count"},
	{"gpu.kernel_model", modelUnit},

	{"grid.new_ms", "ms"},
	{"grid.warm_ms", "ms"},
	{"grid.commit_ns_per_net", "ns"},

	{"route.overflow_scan_ms", "ms"},
	{"route.quality_scan_ms", "ms"},

	{"maze.search_ms", "ms"},
	{"maze.nets", "count"},
	{"maze.expansions", "count"},
	{"maze.ns_per_expansion", "ns"},

	{"taskflow.sum_ms", "ms"},
	{"taskflow.critical_path_ms", "ms"},
	{"taskflow.makespan_w2_ms", "ms"},
	{"taskflow.parallelism_w2", "ratio"},
	{"taskflow.dispatch_us_per_task", "us"},

	{"par.speedup_w2", "ratio"},
	{"par.for_ns_per_unit", "ns"},

	{"shard.plan_ms", "ms"},
	{"shard.split_ms", "ms"},
	{"shard.leaves", "count"},
	{"shard.boundary_nets", "count"},
	{"shard.boundary_reroutes", "count"},
	{"shard.reconcile_model", modelUnit},
	{"shard.wall_ratio_vs_mono", "ratio"},
	{"shard.heap_ratio_vs_mono", "ratio"},
	{"shard.score_ratio_vs_mono", "ratio"},

	{"guide.build_ms", "ms"},
	{"guide.covers_ms", "ms"},
	{"guide.write_ms", "ms"},
	{"guide.bytes", "count"},
	{"guide.count", "count"},

	{"serve.submit_ms", "ms"},
	{"serve.status_ms", "ms"},
	{"serve.guides_fetch_ms", "ms"},
	{"serve.service_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.overhead_pct", "%"},
	{"serve.polls_per_job", "count"},
	{"serve.rejected", "count"},
	{"serve.journal_bytes", "count"},
	{"serve.journal_bytes_per_job", "count"},
	{"serve.retained_heap_kb", "KiB"},

	{"atomicio.write_guide_ms", "ms"},
	{"atomicio.write_journal_ms", "ms"},

	{"obs.trace_overhead_pct", "%"},
	{"obs.spans", "count"},
}

// reading is one emitted metric.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ledger collects one run's readings against a metric table: a name
// outside the table, a second reading of the same name or a non-finite
// value is a bug in the harness and fails the run.
type ledger struct {
	defs []metricDef
	vals map[string]float64
	errs []error
}

func newLedger(defs []metricDef) *ledger {
	return &ledger{defs: defs, vals: make(map[string]float64, len(defs))}
}

func (l *ledger) set(name string, v float64) {
	known := false
	for _, d := range l.defs {
		known = known || d.Name == name
	}
	switch {
	case !known:
		l.errs = append(l.errs, fmt.Errorf("metric %q is not in the table", name))
	case math.IsNaN(v) || math.IsInf(v, 0):
		l.errs = append(l.errs, fmt.Errorf("metric %q is not finite", name))
	default:
		if _, dup := l.vals[name]; dup {
			l.errs = append(l.errs, fmt.Errorf("metric %q reported twice", name))
		}
		l.vals[name] = v
	}
}

func (l *ledger) setMs(name string, d time.Duration) { l.set(name, ms(d)) }

// readings returns every row of the table in table order. Rows never set
// read 0 when zeroFill is on (per-layer rows a workload cannot measure);
// otherwise a missing row is an error.
func (l *ledger) readings(zeroFill bool) (map[string]reading, error) {
	out := make(map[string]reading, len(l.defs))
	for _, d := range l.defs {
		v, ok := l.vals[d.Name]
		if !ok && !zeroFill {
			l.errs = append(l.errs, fmt.Errorf("metric %q was never reported", d.Name))
		}
		out[d.Name] = reading{Value: v, Unit: d.Unit}
	}
	if len(l.errs) > 0 {
		return nil, l.errs[0]
	}
	return out, nil
}

func ms(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }
func sec(d time.Duration) float64 { return d.Seconds() }

// median returns the middle of v (mean of the two middles for an even
// count); v is not modified. An empty v reads 0.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func medianDur(v []time.Duration) time.Duration {
	f := make([]float64, len(v))
	for i, d := range v {
		f[i] = float64(d)
	}
	return time.Duration(median(f))
}
