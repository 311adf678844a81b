package obs

// This file declares every registry metric, once. A declaration holds
// the metric's dotted name (its snapshot key and summary row), its kind
// (carried by its type: Registry.Counter, Gauge and Histogram each take
// only their own declaration type, so neither a bare string nor a
// metric of the wrong kind compiles), its Prometheus family, help text
// and constant labels, and a histogram's bucket bounds. The exposition
// (internal/obs/prom) reads family, help and labels from here, so a
// metric appears exactly once in the snapshot file and exactly once, as
// one labeled series, in /metrics. Dotted siblings that are one logical
// metric split by a dimension share a family and differ only in a label,
// which is what a Prometheus consumer expects to aggregate over.
// TestPromNameTable holds the table to the fastgr_* namespace, one
// declaration per series, one kind and help per family, and ascending
// bounds.

// PromLabel is one constant label pair attached to an exposed series.
type PromLabel struct {
	Key, Value string
}

// Decl is what a metric's declaration says, whatever its kind.
type Decl struct {
	name   string
	kind   string // exposition TYPE: "counter", "gauge" or "histogram"
	family string // fastgr_* family, without the _total suffix
	help   string
	labels []PromLabel
	bounds []int64 // histogram bucket upper bounds, ascending
}

// Name is the dotted registry name.
func (d Decl) Name() string { return d.name }

// Kind is the exposition type: "counter", "gauge" or "histogram".
func (d Decl) Kind() string { return d.kind }

// Family is the exposition family; the renderer appends _total to a
// counter's.
func (d Decl) Family() string { return d.family }

// Help is the family's HELP text.
func (d Decl) Help() string { return d.help }

// Labels are the constant labels telling family siblings apart.
func (d Decl) Labels() []PromLabel { return d.labels }

// CounterDecl, GaugeDecl and HistogramDecl declare one metric of their
// kind.
type (
	CounterDecl   struct{ Decl }
	GaugeDecl     struct{ Decl }
	HistogramDecl struct{ Decl }
)

// declared lists every declaration in this file, for the table test.
var declared []*Decl

func counter(name, family, help string, labels ...PromLabel) *CounterDecl {
	c := &CounterDecl{Decl{name: name, kind: "counter", family: family, help: help, labels: labels}}
	declared = append(declared, &c.Decl)
	return c
}

func gauge(name, family, help string) *GaugeDecl {
	g := &GaugeDecl{Decl{name: name, kind: "gauge", family: family, help: help}}
	declared = append(declared, &g.Decl)
	return g
}

func histogram(name, family, help string, bounds []int64, labels ...PromLabel) *HistogramDecl {
	h := &HistogramDecl{Decl{name: name, kind: "histogram", family: family, help: help, labels: labels, bounds: bounds}}
	declared = append(declared, &h.Decl)
	return h
}

// pow2Buckets returns n histogram upper bounds lo, 2lo, 4lo, ...: the
// geometric ladder that suits heavy-tailed size and duration counts.
func pow2Buckets(lo int64, n int) []int64 {
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

// Bucket ladders of the declared histograms.
var (
	expansionBuckets = pow2Buckets(16, 16)    // 16..512k settled nodes per search
	batchSizeBuckets = pow2Buckets(1, 16)     // 1..32k tasks per batch
	durationBuckets  = pow2Buckets(1000, 26)  // 1µs..32s in nanoseconds
	serviceBuckets   = pow2Buckets(1<<20, 24) // ~1ms..~2.4h in nanoseconds
)

// Help texts shared by the sibling members of one family.
const (
	helpMazeAlgorithm = "Settled nodes per maze search, split by algorithm."
	helpPatternEdges  = "Two-pin nets routed by the pattern stage, split by kernel."
	helpCostReads     = "Cost-field queries, split by cache outcome."
	helpFaultEvents   = "Fault containment events, split by kind."
	helpServeJobs     = "Daemon job lifecycle events, split by outcome."
)

// The metrics. Instrumented packages and consumers (the CLI summary,
// tests) meet on these declarations.
var (
	MMazeExpansions = histogram("maze.expansions", "fastgr_maze_expansions",
		"Settled nodes per maze search.", expansionBuckets)
	// MMazeExpansionsAStar / MMazeExpansionsDijkstra split the per-search
	// expansion histogram by maze algorithm, so an A*-vs-Dijkstra
	// before/after comparison can come straight from the registry.
	MMazeExpansionsAStar = histogram("maze.expansions.astar", "fastgr_maze_algorithm_expansions",
		helpMazeAlgorithm, expansionBuckets, PromLabel{"algorithm", "astar"})
	MMazeExpansionsDijkstra = histogram("maze.expansions.dijkstra", "fastgr_maze_algorithm_expansions",
		helpMazeAlgorithm, expansionBuckets, PromLabel{"algorithm", "dijkstra"})
	MMazePushes = counter("maze.pushes", "fastgr_maze_pushes",
		"Heap pushes across all maze searches.")
	MMazeSearches = counter("maze.searches", "fastgr_maze_searches",
		"Maze RouteNet invocations.")
	MMazeBoundPasses = counter("maze.bound.passes", "fastgr_maze_bound_passes",
		"Maze passes that ran with the congestion-aware A* bound.")
	MMazeBoundCells = counter("maze.bound.cells", "fastgr_maze_bound_cells",
		"Plane cells settled by the congestion-aware bound's floods.")

	MBatchSize = histogram("sched.batch_size", "fastgr_sched_batch_size",
		"Tasks per Algorithm-1 batch.", batchSizeBuckets)
	MSchedBatches = counter("sched.batches", "fastgr_sched_batches",
		"Batches extracted by the conflict-aware scheduler.")

	MPatternLShape = counter("pattern.edges.lshape", "fastgr_pattern_edges",
		helpPatternEdges, PromLabel{"kernel", "lshape"})
	MPatternHybrid = counter("pattern.edges.hybrid", "fastgr_pattern_edges",
		helpPatternEdges, PromLabel{"kernel", "hybrid"})
	MKernelNs = histogram("gpu.kernel_ns", "fastgr_gpu_kernel_ns",
		"Simulated per-batch pattern kernel time in nanoseconds.", durationBuckets)

	// MParWaitNs runs from taskflow.For entry to the chunk starting on a
	// worker.
	MParWaitNs = histogram("par.chunk_wait_ns", "fastgr_par_chunk_wait_ns",
		"Parallel-for chunk claim latency in nanoseconds.", durationBuckets)
	MParRunNs = histogram("par.chunk_run_ns", "fastgr_par_chunk_run_ns",
		"Parallel-for chunk run duration in nanoseconds.", durationBuckets)
	MTaskWaitNs = histogram("taskflow.task_wait_ns", "fastgr_taskflow_task_wait_ns",
		"Taskflow ready-to-start latency in nanoseconds.", durationBuckets)
	MTaskRunNs = histogram("taskflow.task_run_ns", "fastgr_taskflow_task_run_ns",
		"Taskflow per-task run duration in nanoseconds.", durationBuckets)

	MRRRNets = counter("rrr.nets_ripped", "fastgr_rrr_nets_ripped",
		"Nets ripped up across all rip-up-and-reroute iterations.")
	MRRRExpansions = counter("rrr.expansions", "fastgr_rrr_expansions",
		"Maze expansions across all rip-up-and-reroute iterations.")
	MRRRIterations = gauge("rrr.iterations", "fastgr_rrr_iterations",
		"Rip-up-and-reroute iterations completed so far.")
	MRRROverflow = gauge("rrr.overflow", "fastgr_rrr_overflow",
		"Total overflow (shorts) after the latest committed iteration.")

	// MCostHits counts wire, via, segment and stack queries answered from
	// the materialized cost field. MCostMisses counts per-edge reads that
	// evaluated the direct formula: the cache was unbuilt, or the edge
	// lies outside the cache window. A built cache is written through at
	// mutation time, so there is no stale-edge miss.
	MCostHits = counter("grid.cost.hits", "fastgr_grid_cost_reads",
		helpCostReads, PromLabel{"result", "hit"})
	MCostMisses = counter("grid.cost.misses", "fastgr_grid_cost_reads",
		helpCostReads, PromLabel{"result", "miss"})
	MCostInvalidations = counter("grid.cost.invalidations", "fastgr_grid_cost_invalidations",
		"Cached edge costs rewritten in place (write-through) by a demand or history mutation.")
	MCostWarms = counter("grid.cost.warmed_lines", "fastgr_grid_cost_warmed_lines",
		"Lines and cells built or re-summed by WarmCostCache.")

	// Fault accounting: injected synthetic faults; recovered contained
	// failures a retry followed; degraded final contained failures (retry
	// exhaustion, kernel fallbacks, budget trips); retries re-executions.
	// For injection-only fault sources injected == recovered + degraded
	// exactly (see package fault).
	MFaultInjected = counter("fault.injected", "fastgr_fault_events",
		helpFaultEvents, PromLabel{"kind", "injected"})
	MFaultRecovered = counter("fault.recovered", "fastgr_fault_events",
		helpFaultEvents, PromLabel{"kind", "recovered"})
	MFaultDegraded = counter("fault.degraded", "fastgr_fault_events",
		helpFaultEvents, PromLabel{"kind", "degraded"})
	MFaultRetries = counter("fault.retries", "fastgr_fault_events",
		helpFaultEvents, PromLabel{"kind", "retries"})

	MServeQueueDepth = gauge("serve.queue.depth", "fastgr_serve_queue_depth",
		"Jobs waiting in the daemon admission queue.")
	// The daemon's job outcomes: admitted into the queue; rejected by
	// admission control (429); recovered by journal replay after a
	// restart; done; failed (a routing error or a blown deadline);
	// cancelled by DELETE.
	MServeAdmitted = counter("serve.jobs.admitted", "fastgr_serve_jobs",
		helpServeJobs, PromLabel{"outcome", "admitted"})
	MServeRejected = counter("serve.jobs.rejected", "fastgr_serve_jobs",
		helpServeJobs, PromLabel{"outcome", "rejected"})
	MServeRecovered = counter("serve.jobs.recovered", "fastgr_serve_jobs",
		helpServeJobs, PromLabel{"outcome", "recovered"})
	MServeDone = counter("serve.jobs.done", "fastgr_serve_jobs",
		helpServeJobs, PromLabel{"outcome", "done"})
	MServeFailed = counter("serve.jobs.failed", "fastgr_serve_jobs",
		helpServeJobs, PromLabel{"outcome", "failed"})
	MServeCancelled = counter("serve.jobs.cancelled", "fastgr_serve_jobs",
		helpServeJobs, PromLabel{"outcome", "cancelled"})
	// MServeJobNs's mean feeds the 429 Retry-After estimate.
	MServeJobNs = histogram("serve.job_service_ns", "fastgr_serve_job_service_ns",
		"Per-job service time from admission to terminal state in nanoseconds.", serviceBuckets)
)
