package obs

import (
	"sort"
	"strings"
)

// This file is the single name-mapping table between the registry's
// dotted metric names and the Prometheus exposition (internal/obs/prom):
// every dotted name maps to exactly one fastgr_* metric family plus a
// fixed label set, so a metric appears exactly once in the snapshot file
// and exactly once (as one labeled series) in the /metrics exposition.
// Dotted siblings that are really one logical metric split by a
// dimension — grid.cost.hits/misses, pattern.edges.lshape/hybrid, the
// per-algorithm maze expansion histograms, the fault accounting
// counters — share a family and differ only in a label, which is what a
// Prometheus consumer expects to aggregate over.
//
// TestPromNameTable keeps the table exhaustive over the shared metric
// constants and free of duplicate (family, labels) pairs; a metric
// registered without a table entry still exposes through the sanitized
// fallback rather than disappearing from a scrape.

// PromLabel is one constant label pair attached to an exposed series.
type PromLabel struct {
	Key, Value string
}

// PromMapping describes how one dotted registry metric appears in the
// Prometheus exposition: the family name (without the _total/_bucket
// type suffixes, which the renderer appends), its HELP text, and the
// constant labels distinguishing dotted siblings within the family.
type PromMapping struct {
	Family string
	Help   string
	Labels []PromLabel
}

// promTable maps every shared dotted metric name to its exposition
// family. Families must not collide across metric kinds (a counter and
// a histogram cannot share a family); the obs test suite enforces that.
var promTable = map[string]PromMapping{
	MMazeExpansions: {Family: "fastgr_maze_expansions",
		Help: "Settled nodes per maze search."},
	MMazeExpansionsAStar: {Family: "fastgr_maze_algorithm_expansions",
		Help:   "Settled nodes per maze search, split by algorithm.",
		Labels: []PromLabel{{"algorithm", "astar"}}},
	MMazeExpansionsDijkstra: {Family: "fastgr_maze_algorithm_expansions",
		Help:   "Settled nodes per maze search, split by algorithm.",
		Labels: []PromLabel{{"algorithm", "dijkstra"}}},
	MMazePushes: {Family: "fastgr_maze_pushes",
		Help: "Heap pushes across all maze searches."},
	MMazeSearches: {Family: "fastgr_maze_searches",
		Help: "Maze RouteNet invocations."},
	MBatchSize: {Family: "fastgr_sched_batch_size",
		Help: "Tasks per Algorithm-1 batch."},
	MSchedBatches: {Family: "fastgr_sched_batches",
		Help: "Batches extracted by the conflict-aware scheduler."},
	MPatternLShape: {Family: "fastgr_pattern_edges",
		Help:   "Two-pin nets routed by the pattern stage, split by kernel.",
		Labels: []PromLabel{{"kernel", "lshape"}}},
	MPatternHybrid: {Family: "fastgr_pattern_edges",
		Help:   "Two-pin nets routed by the pattern stage, split by kernel.",
		Labels: []PromLabel{{"kernel", "hybrid"}}},
	MKernelNs: {Family: "fastgr_gpu_kernel_ns",
		Help: "Simulated per-batch pattern kernel time in nanoseconds."},
	MParWaitNs: {Family: "fastgr_par_chunk_wait_ns",
		Help: "Par-pool chunk claim latency in nanoseconds."},
	MParRunNs: {Family: "fastgr_par_chunk_run_ns",
		Help: "Par-pool chunk run duration in nanoseconds."},
	MTaskWaitNs: {Family: "fastgr_taskflow_task_wait_ns",
		Help: "Taskflow ready-to-start latency in nanoseconds."},
	MTaskRunNs: {Family: "fastgr_taskflow_task_run_ns",
		Help: "Taskflow per-task run duration in nanoseconds."},
	MRRRNets: {Family: "fastgr_rrr_nets_ripped",
		Help: "Nets ripped up across all rip-up-and-reroute iterations."},
	MRRRExpansions: {Family: "fastgr_rrr_expansions",
		Help: "Maze expansions across all rip-up-and-reroute iterations."},
	MRRRIterations: {Family: "fastgr_rrr_iterations",
		Help: "Rip-up-and-reroute iterations completed so far."},
	MRRROverflow: {Family: "fastgr_rrr_overflow",
		Help: "Total overflow (shorts) after the latest committed iteration."},
	MCostHits: {Family: "fastgr_grid_cost_reads",
		Help:   "Cost-field queries, split by cache outcome.",
		Labels: []PromLabel{{"result", "hit"}}},
	MCostMisses: {Family: "fastgr_grid_cost_reads",
		Help:   "Cost-field queries, split by cache outcome.",
		Labels: []PromLabel{{"result", "miss"}}},
	MCostInvalidations: {Family: "fastgr_grid_cost_invalidations",
		Help: "Cached edge costs rewritten in place (write-through) by a demand or history mutation."},
	MCostWarms: {Family: "fastgr_grid_cost_warmed_lines",
		Help: "Lines and cells built or re-summed by WarmCostCache."},
	MFaultInjected: {Family: "fastgr_fault_events",
		Help:   "Fault containment events, split by kind.",
		Labels: []PromLabel{{"kind", "injected"}}},
	MFaultRecovered: {Family: "fastgr_fault_events",
		Help:   "Fault containment events, split by kind.",
		Labels: []PromLabel{{"kind", "recovered"}}},
	MFaultDegraded: {Family: "fastgr_fault_events",
		Help:   "Fault containment events, split by kind.",
		Labels: []PromLabel{{"kind", "degraded"}}},
	MFaultRetries: {Family: "fastgr_fault_events",
		Help:   "Fault containment events, split by kind.",
		Labels: []PromLabel{{"kind", "retries"}}},
	MServeQueueDepth: {Family: "fastgr_serve_queue_depth",
		Help: "Jobs waiting in the daemon admission queue."},
	MServeAdmitted: {Family: "fastgr_serve_jobs",
		Help:   "Daemon job lifecycle events, split by outcome.",
		Labels: []PromLabel{{"outcome", "admitted"}}},
	MServeRejected: {Family: "fastgr_serve_jobs",
		Help:   "Daemon job lifecycle events, split by outcome.",
		Labels: []PromLabel{{"outcome", "rejected"}}},
	MServeRecovered: {Family: "fastgr_serve_jobs",
		Help:   "Daemon job lifecycle events, split by outcome.",
		Labels: []PromLabel{{"outcome", "recovered"}}},
	MServeDone: {Family: "fastgr_serve_jobs",
		Help:   "Daemon job lifecycle events, split by outcome.",
		Labels: []PromLabel{{"outcome", "done"}}},
	MServeFailed: {Family: "fastgr_serve_jobs",
		Help:   "Daemon job lifecycle events, split by outcome.",
		Labels: []PromLabel{{"outcome", "failed"}}},
	MServeCancelled: {Family: "fastgr_serve_jobs",
		Help:   "Daemon job lifecycle events, split by outcome.",
		Labels: []PromLabel{{"outcome", "cancelled"}}},
	MServeJobNs: {Family: "fastgr_serve_job_service_ns",
		Help: "Per-job service time from admission to terminal state in nanoseconds."},
}

// PromMappingFor returns the exposition mapping for a dotted metric
// name. Names missing from the table fall back to a sanitized
// fastgr_<dotted> family with no labels and generic help, so an
// unmapped metric still reaches the scrape.
func PromMappingFor(dotted string) PromMapping {
	if m, ok := promTable[dotted]; ok {
		return m
	}
	return PromMapping{
		Family: "fastgr_" + sanitizeMetricName(dotted),
		Help:   "Registry metric " + strings.Map(dropControl, dotted) + ".",
	}
}

// PromTableNames returns the dotted names the table maps, for the
// exhaustiveness test.
func PromTableNames() []string {
	names := make([]string, 0, len(promTable))
	for name := range promTable {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// sanitizeMetricName rewrites a dotted registry name into the
// Prometheus metric-name alphabet [a-zA-Z0-9_:], mapping every run of
// other characters to a single underscore.
func sanitizeMetricName(s string) string {
	var b strings.Builder
	lastUnderscore := false
	for _, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
			lastUnderscore = r == '_'
			continue
		}
		if !lastUnderscore {
			b.WriteByte('_')
			lastUnderscore = true
		}
	}
	out := strings.Trim(b.String(), "_")
	if out == "" {
		return "unnamed"
	}
	return out
}

func dropControl(r rune) rune {
	if r == '\n' || r == '\r' {
		return ' '
	}
	return r
}
