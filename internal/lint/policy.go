package lint

import (
	"strings"

	"fastgr/internal/lint/flow"
)

// Policy is the per-package rule table: which packages each check
// applies to. Paths are import paths; a trailing "/..." matches the
// whole subtree.
type Policy struct {
	// DetwallExempt lists packages allowed to read the wall clock or
	// the process-global rand source. Everything else in scope of the
	// run is determinism-critical: findings there must be fixed (route
	// timing through internal/obs, thread a seeded rand.Source) or carry
	// a justified suppression.
	DetwallExempt []string
	// DetmapExempt lists packages where order-sensitive accumulation
	// from map iteration is tolerated without a canonicalizing sort.
	DetmapExempt []string
	// GoroutineAllowed lists the packages permitted to contain bare go
	// statements. All other worker spawning must go through the taskflow
	// executor so the determinism contract and the tracer's
	// one-goroutine-per-lane invariant hold.
	GoroutineAllowed []string
	// NilsafePackages lists the packages whose exported pointer-receiver
	// methods must open with a nil-receiver guard (the flight recorder's
	// disabled-mode contract).
	NilsafePackages []string
	// RecoverAllowed lists the packages permitted to call recover(). All
	// other panic recovery must go through the fault containment layer,
	// which counts every recovery into the injected == recovered +
	// degraded accounting equation and keeps retries deterministic.
	RecoverAllowed []string
	// Flow anchors the interprocedural checks (walltaint, writeroute,
	// shardisolation) to module-specific entry points and
	// sanctioned patterns. A zero config disables the flow layer.
	Flow flow.Config
}

// DefaultPolicy is the rule table for the fastgr module itself.
//
//   - internal/obs is the sanctioned wall-clock reader: it is the
//     observability choke point (package comment: "the wall clock never
//     feeds a reported metric"), and the executor times its chunks and
//     tasks through its Stopwatch. cmd and examples are human-facing
//     programs, free to print timestamps.
//   - goroutines may only be spawned by the taskflow executor and obs
//     itself; cmd binaries needing a service goroutine
//     (e.g. the pprof listener) must justify it with a suppression.
//   - internal/obs/opsrv is additionally allowed one bare go statement:
//     the ops server's accept loop (go srv.Serve(ln)). It lives outside
//     the routing pipeline — handlers only snapshot observability state,
//     never touch routed data — so it cannot violate the one-goroutine-
//     per-lane tracer invariant or the determinism contract, and an
//     accept loop cannot run on the executor without deadlocking a
//     worker for the lifetime of the server.
//   - internal/serve is sanctioned on both counts: the fastgrd daemon's
//     runner loops, accept loop and drain joiner are long-lived service
//     goroutines joined by Drain/Close — like opsrv's accept loop they
//     would deadlock an executor worker for the server's lifetime — and its
//     wall readings (job service times, Retry-After estimates, drain
//     budgets) are advisory operational signals, declassified by
//     construction: they shape queueing politeness, never a routed
//     result, which still flows through core under full walltaint
//     scrutiny.
//   - internal/obs carries the nil-safety contract.
//   - internal/fault is the only package allowed to call recover():
//     containment re-counts every recovery into the fault accounting
//     equation; an uncounted recover elsewhere could silently mask a
//     determinism violation.
//   - internal/grid is deliberately exempt from nothing: the cost-field
//     cache mixes owner-exclusive plain state (edge values, written
//     through by whoever mutates the edge) with shared atomic dirty flags, and the atomic-consistency check is
//     what keeps those two tiers from bleeding into each other — a dirty
//     flag published with sync/atomic must never be re-read plainly (the
//     epochmix fixture pins this failure mode).
//   - internal/shard likewise carries no exemptions: the spatial
//     partitioner is a pure function of (design, margin) — a wall-clock
//     read, a map-order-dependent leaf numbering or a stray goroutine
//     there would silently break the shard-count invariance that
//     TestShardDeterminism pins, so every determinism check applies at
//     full strength.
func DefaultPolicy() Policy {
	return Policy{
		DetwallExempt: []string{
			"fastgr/internal/obs",
			"fastgr/internal/serve",
			"fastgr/cmd/...",
			"fastgr/examples/...",
		},
		DetmapExempt: nil, // export paths canonicalize; none exempt today
		GoroutineAllowed: []string{
			"fastgr/internal/taskflow",
			"fastgr/internal/obs",
			"fastgr/internal/obs/opsrv",
			"fastgr/internal/serve",
		},
		NilsafePackages: []string{
			"fastgr/internal/obs",
		},
		RecoverAllowed: []string{
			"fastgr/internal/fault",
		},
		Flow: DefaultFlowConfig(),
	}
}

// DefaultFlowConfig anchors the interprocedural flow checks to the
// fastgr module:
//
//   - walltaint: route, core and grid hold routed output and the data it
//     is computed from; a wall-derived value crossing into them breaks
//     the byte-identical contract the detwall exemptions (obs, cmd)
//     were never meant to loosen. The *Wall columns of core.StageTimes
//     and the journal's stage wall_ms are the documented host-time
//     report carriers, explicitly excluded from the bit-identical
//     contract (DESIGN.md "Modeled time vs. execution time"), so they
//     are the sanctioned declassification points.
//   - writeroute: internal/atomicio is the one crash-safe writer; every
//     durable artifact write routes through it (PR 5's contract).
//   - shardisolation: worker roots are the bodies handed to the taskflow
//     executor — its parallel-for (For, and par.For, which forwards to
//     it) and its task graphs (RunWorkersFault and its Run/RunWorkers
//     wrappers). Workers may warm only
//     WindowView-derived caches; Graph.WarmCostCache on a parent cache,
//     journal emission and writes to the coordinator-owned report fields
//     stay on the coordinator (DESIGN.md "Sharded routing and boundary
//     nets").
//
// Metric names need no flow anchor: obs.Registry takes only the
// declarations in internal/obs/names.go, so an undeclared metric does
// not compile.
func DefaultFlowConfig() flow.Config {
	return flow.Config{
		SinkPkgs: []string{
			"fastgr/internal/route",
			"fastgr/internal/core",
			"fastgr/internal/grid",
		},
		SanctionedFields: []string{
			"fastgr/internal/core.StageTimes.PlanWall",
			"fastgr/internal/core.StageTimes.PatternWall",
			"fastgr/internal/core.StageTimes.MazeWall",
			"fastgr/internal/core.StageTimes.WallTotal",
			"fastgr/internal/core.stageEvent.WallMs",
		},
		WriteAllowedPkgs: []string{
			"fastgr/internal/atomicio",
		},
		SpawnFuncs: []string{
			"fastgr/internal/par.For",
			"fastgr/internal/taskflow.For",
			"fastgr/internal/taskflow.Run",
			"fastgr/internal/taskflow.RunWorkers",
			"fastgr/internal/taskflow.RunWorkersFault",
		},
		WarmFuncs: []string{
			"fastgr/internal/grid.Graph.WarmCostCache",
		},
		WindowFuncs: []string{
			"fastgr/internal/grid.Graph.WindowView",
		},
		CoordFields: []string{
			"fastgr/internal/core.Report.*",
			"fastgr/internal/core.StageTimes.*",
		},
		JournalFuncs: []string{
			"fastgr/internal/obs.Journal.Emit",
		},
	}
}

// matchPath reports whether an import path matches a pattern list entry
// (exact, or subtree via a trailing "/...").
func matchPath(pattern, path string) bool {
	if rest, ok := strings.CutSuffix(pattern, "/..."); ok {
		return path == rest || strings.HasPrefix(path, rest+"/")
	}
	return path == pattern
}

func matchAny(patterns []string, path string) bool {
	for _, p := range patterns {
		if matchPath(p, path) {
			return true
		}
	}
	return false
}

func (p Policy) detwallApplies(path string) bool   { return !matchAny(p.DetwallExempt, path) }
func (p Policy) detmapApplies(path string) bool    { return !matchAny(p.DetmapExempt, path) }
func (p Policy) goroutineAllowed(path string) bool { return matchAny(p.GoroutineAllowed, path) }
func (p Policy) nilsafeApplies(path string) bool   { return matchAny(p.NilsafePackages, path) }
func (p Policy) recoverAllowed(path string) bool   { return matchAny(p.RecoverAllowed, path) }
