// Package obs is the router's flight recorder: a lightweight span tracer
// with a bounded in-memory ring buffer and a Chrome trace_event exporter
// (one lane per executor worker, one for the pipeline stages), plus a
// metrics registry of atomic counters, gauges and fixed-bucket histograms.
//
// Observability is strictly passive. The determinism contract of the
// execution layer (see package par) extends to this package: recording
// spans or metrics must never change routed geometry, modeled times or
// reported quality at any worker count — instrumentation reads the
// wall clock, and the wall clock never feeds a reported metric.
//
// Disabled mode is the common case and is engineered to be free: every
// handle type (*Tracer, *Registry, *Counter, *Gauge, *Histogram, the
// zero Span) is nil-safe, so instrumented call sites hold possibly-nil
// handles and call them unconditionally. The hot-path cost of a disabled
// site is a nil check, or — when a Tracer is installed but switched off —
// one atomic load. cmd/benchgen -obs proves the end-to-end overhead on
// the pattern-stage benchmark stays under 2%.
package obs

// Observer bundles the observability sinks. A nil *Observer is the
// disabled mode; every field is optional, so a caller can trace without
// metrics or vice versa.
type Observer struct {
	Tracer  *Tracer
	Metrics *Registry
	// Health, when non-nil, receives stage-level liveness beats for the
	// ops server's /healthz endpoint.
	Health *Health
}

// T returns the tracer, nil-safely: a nil observer has a nil tracer.
func (o *Observer) T() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// M returns the metrics registry, nil-safely.
func (o *Observer) M() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// H returns the health tracker, nil-safely.
func (o *Observer) H() *Health {
	if o == nil {
		return nil
	}
	return o.Health
}

// Enabled reports whether any sink is attached.
func (o *Observer) Enabled() bool {
	return o != nil && (o.Tracer != nil || o.Metrics != nil)
}

// Shared metric names. Instrumented packages and consumers (the CLI
// summary, tests) meet on these constants instead of retyping strings.
const (
	// MMazeExpansions is the per-search settled-node histogram.
	MMazeExpansions = "maze.expansions"
	// MMazePushes counts heap pushes across all maze searches.
	MMazePushes = "maze.pushes"
	// MMazeSearches counts RouteNet invocations.
	MMazeSearches = "maze.searches"
	// MMazeBoundPasses counts maze passes that ran with the congestion-
	// aware A* bound.
	MMazeBoundPasses = "maze.bound.passes"
	// MMazeBoundCells counts plane cells settled by the bound's floods.
	MMazeBoundCells = "maze.bound.cells"
	// MBatchSize is the Algorithm-1 batch size histogram.
	MBatchSize = "sched.batch_size"
	// MSchedBatches counts extracted batches.
	MSchedBatches = "sched.batches"
	// MPatternLShape counts two-pin nets routed by the L-shape kernel.
	MPatternLShape = "pattern.edges.lshape"
	// MPatternHybrid counts two-pin nets routed by the hybrid kernel.
	MPatternHybrid = "pattern.edges.hybrid"
	// MKernelNs is the simulated per-batch kernel time histogram (ns).
	MKernelNs = "gpu.kernel_ns"
	// MParWaitNs is the parallel-for chunk claim latency histogram (ns
	// from taskflow.For entry to the chunk starting on a worker).
	MParWaitNs = "par.chunk_wait_ns"
	// MParRunNs is the parallel-for chunk run duration histogram (ns).
	MParRunNs = "par.chunk_run_ns"
	// MTaskWaitNs is the taskflow ready-to-start latency histogram (ns).
	MTaskWaitNs = "taskflow.task_wait_ns"
	// MTaskRunNs is the taskflow per-task run duration histogram (ns).
	MTaskRunNs = "taskflow.task_run_ns"
	// MRRRNets counts nets ripped up across all iterations.
	MRRRNets = "rrr.nets_ripped"
	// MRRRExpansions counts maze expansions across all iterations.
	MRRRExpansions = "rrr.expansions"
	// MRRRIterations gauges the rip-up iterations completed so far.
	MRRRIterations = "rrr.iterations"
	// MRRROverflow gauges total overflow after the latest committed
	// iteration.
	MRRROverflow = "rrr.overflow"
	// MCostHits counts cost-cache fast-path reads (wire, via, segment and
	// stack queries answered from the materialized cost field).
	MCostHits = "grid.cost.hits"
	// MCostMisses counts per-edge cost reads that evaluated the direct
	// formula: the cache was unbuilt, or the edge lies outside the cache
	// window. A built cache is written through at mutation time, so there
	// is no stale-edge miss.
	MCostMisses = "grid.cost.misses"
	// MCostInvalidations counts write-throughs: cached edge values
	// recomputed in place by a demand or history mutation (the name is
	// pinned by the Prometheus table).
	MCostInvalidations = "grid.cost.invalidations"
	// MCostWarms counts lines/cells built or re-summed by
	// Graph.WarmCostCache.
	MCostWarms = "grid.cost.warmed_lines"
	// MMazeExpansionsAStar / MMazeExpansionsDijkstra split the per-search
	// expansion histogram by maze algorithm, so an A*-vs-Dijkstra
	// before/after comparison can come straight from the registry.
	MMazeExpansionsAStar    = "maze.expansions.astar"
	MMazeExpansionsDijkstra = "maze.expansions.dijkstra"
	// MFaultInjected counts synthetic faults fired by the chaos injector.
	MFaultInjected = "fault.injected"
	// MFaultRecovered counts contained failures (injections and panics)
	// that a retry followed.
	MFaultRecovered = "fault.recovered"
	// MFaultDegraded counts final contained failures: retry exhaustion,
	// kernel fallbacks and budget trips. For injection-only fault sources
	// injected == recovered + degraded exactly (see package fault).
	MFaultDegraded = "fault.degraded"
	// MFaultRetries counts work-unit re-executions after a contained
	// failure.
	MFaultRetries = "fault.retries"
	// MServeQueueDepth gauges jobs waiting in the daemon's admission
	// queue (queued, not yet picked up by a runner).
	MServeQueueDepth = "serve.queue.depth"
	// MServeAdmitted counts jobs accepted into the queue.
	MServeAdmitted = "serve.jobs.admitted"
	// MServeRejected counts submissions refused by admission control
	// (queue or memory budget full → 429).
	MServeRejected = "serve.jobs.rejected"
	// MServeRecovered counts jobs requeued by journal replay after a
	// restart.
	MServeRecovered = "serve.jobs.recovered"
	// MServeDone counts jobs that finished routing successfully.
	MServeDone = "serve.jobs.done"
	// MServeFailed counts jobs that ended in a routing error or blew
	// their deadline.
	MServeFailed = "serve.jobs.failed"
	// MServeCancelled counts jobs cancelled by DELETE.
	MServeCancelled = "serve.jobs.cancelled"
	// MServeJobNs is the per-job service-time histogram (ns, admission
	// to terminal state); its mean feeds the 429 Retry-After estimate.
	MServeJobNs = "serve.job_service_ns"
)

// Pow2Buckets returns n histogram upper bounds lo, 2lo, 4lo, ...: the
// geometric ladder that suits heavy-tailed size and duration counts.
func Pow2Buckets(lo int64, n int) []int64 {
	if lo < 1 {
		lo = 1
	}
	b := make([]int64, n)
	for i := range b {
		b[i] = lo
		lo *= 2
	}
	return b
}

// Default bucket ladders for the shared histograms.
var (
	// ExpansionBuckets spans 16..512k settled nodes per search.
	ExpansionBuckets = Pow2Buckets(16, 16)
	// BatchSizeBuckets spans 1..32k tasks per batch.
	BatchSizeBuckets = Pow2Buckets(1, 16)
	// DurationBuckets spans 1µs..32s in nanoseconds.
	DurationBuckets = Pow2Buckets(1000, 26)
)
