package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// The bench regression watchdog: `benchgen -regress` re-validates every
// committed BENCH_*.json against its own recorded gates and diffs the
// gated metrics against the committed baseline (`git show <ref>:<file>`).
// A gate breach fails the run — that is the tier1 wire. Drift against
// the baseline only warns: wall-clock benchmarks on shared hosts are
// noisy, and the committed gates, not the previous run, are the
// contract. Baselines whose BenchMeta fingerprint differs (other host
// shape, toolchain or schema version) are refused with a notice instead
// of diffed — a cross-host comparison is noise dressed up as signal.

// gateDir is the direction a gated metric must satisfy.
type gateDir int

const (
	atMost  gateDir = iota // metric <= limit
	atLeast                // metric >= limit
)

type gate struct {
	metric string // JSON field holding the measured value
	limit  string // JSON field holding the committed limit; "" for a report-only row
	dir    gateDir
}

// benchGates maps every bench artifact to its gates. Files with no
// gates (informational trajectories) still get meta and drift checks, and
// a row with no limit is report-only: its metric must be present and its
// drift warns, but it never fails.
var benchGates = map[string][]gate{
	"BENCH_obs.json": {
		{metric: "disabled_overhead_pct", limit: "max_disabled_overhead_pct", dir: atMost},
	},
	"BENCH_fault.json": {
		{metric: "pattern_overhead_pct", limit: "max_overhead_pct", dir: atMost},
		{metric: "maze_overhead_pct", limit: "max_overhead_pct", dir: atMost},
	},
	"BENCH_maze.json": {
		{metric: "ns_per_expansion_ratio_astar_vs_dijkstra_warm", limit: "max_ns_per_expansion_ratio", dir: atMost},
		// The congested row: report-only, drift warns.
		{metric: "hot_ns_per_op_ratio_astar_vs_dijkstra", dir: atMost},
	},
	"BENCH_shard.json": {
		{metric: "heap_ratio", limit: "max_heap_ratio", dir: atMost},
		{metric: "score_drift_pct", limit: "max_score_drift_pct", dir: atMost},
	},
	"BENCH_serve.json": {
		{metric: "overhead_pct", limit: "max_overhead_pct", dir: atMost},
	},
	"BENCH_hostpar.json": nil,
	"BENCH_lint.json": {
		{metric: "wall_ratio", limit: "max_wall_ratio", dir: atMost},
	},
}

// driftWarnPct is how much a gated metric may move in the bad direction
// versus the committed baseline before -regress prints a drift warning.
const driftWarnPct = 25.0

// benchDoc is one parsed BENCH_*.json: the flat numeric fields plus the
// meta stamp.
type benchDoc struct {
	fields map[string]float64
	meta   *BenchMeta
}

func parseBenchDoc(data []byte) (benchDoc, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return benchDoc{}, err
	}
	doc := benchDoc{fields: map[string]float64{}}
	for k, v := range raw {
		if k == "meta" {
			var m BenchMeta
			if err := json.Unmarshal(v, &m); err != nil {
				return benchDoc{}, fmt.Errorf("meta: %w", err)
			}
			doc.meta = &m
			continue
		}
		var f float64
		if err := json.Unmarshal(v, &f); err == nil {
			doc.fields[k] = f
		}
	}
	return doc, nil
}

// runRegress validates every bench artifact in the module root. It
// returns an error — failing tier1 — when an artifact is missing,
// unparseable, unstamped, or breaches one of its own gates.
func runRegress(baselineRef string) error {
	moduleDir, err := lintModuleRoot()
	if err != nil {
		return err
	}
	names := make([]string, 0, len(benchGates))
	for name := range benchGates {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	for _, name := range names {
		for _, msg := range regressOne(moduleDir, baselineRef, name) {
			failures = append(failures, name+": "+msg)
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "regress: FAIL", f)
		}
		return fmt.Errorf("%d bench regression(s)", len(failures))
	}
	fmt.Printf("regress: %d artifacts clean against %s\n", len(names), baselineRef)
	return nil
}

// regressOne checks one artifact and returns its failures. Notices and
// drift warnings print but do not fail.
func regressOne(moduleDir, baselineRef, name string) []string {
	data, err := os.ReadFile(filepath.Join(moduleDir, name))
	if err != nil {
		return []string{fmt.Sprintf("missing artifact (%v)", err)}
	}
	doc, err := parseBenchDoc(data)
	if err != nil {
		return []string{fmt.Sprintf("unparseable: %v", err)}
	}
	if doc.meta == nil {
		return []string{"no meta stamp; regenerate with this benchgen"}
	}
	var failures []string
	for _, g := range benchGates[name] {
		metric, okM := doc.fields[g.metric]
		if okM && g.limit == "" {
			continue // report-only: present, never a breach
		}
		limit, okL := doc.fields[g.limit]
		if !okM || !okL {
			failures = append(failures,
				fmt.Sprintf("gate fields %s/%s missing", g.metric, g.limit))
			continue
		}
		if (g.dir == atMost && metric > limit) || (g.dir == atLeast && metric < limit) {
			op := "<="
			if g.dir == atLeast {
				op = ">="
			}
			failures = append(failures,
				fmt.Sprintf("gate breached: %s=%.4g, want %s %s=%.4g", g.metric, metric, op, g.limit, limit))
		}
	}

	// Baseline comparison — informational. `git show` fails when the
	// artifact is new on this branch; that is a notice, not a failure.
	out, err := exec.Command("git", "-C", moduleDir, "show", baselineRef+":"+name).Output()
	if err != nil {
		fmt.Printf("regress: %s: no baseline at %s (new artifact?)\n", name, baselineRef)
		return failures
	}
	base, err := parseBenchDoc(out)
	if err != nil || base.meta == nil {
		fmt.Printf("regress: %s: baseline at %s unstamped; skipping drift check\n", name, baselineRef)
		return failures
	}
	if ok, reason := doc.meta.comparableWith(*base.meta); !ok {
		fmt.Printf("regress: %s: refusing baseline comparison: %s\n", name, reason)
		return failures
	}
	for _, g := range benchGates[name] {
		cur, okC := doc.fields[g.metric]
		prev, okP := base.fields[g.metric]
		if !okC || !okP || prev == 0 {
			continue
		}
		// Positive drift = moved in the bad direction for this gate.
		drift := (cur - prev) / math.Abs(prev) * 100
		if g.dir == atLeast {
			drift = -drift
		}
		if drift > driftWarnPct {
			fmt.Printf("regress: %s: WARN %s drifted %.1f%% against %s (%.4g -> %.4g); gate still holds\n",
				name, g.metric, drift, baselineRef, prev, cur)
		}
	}
	return failures
}
