package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fastgr/internal/lint"
)

// lintReport records the cost of the static invariant net so analyzer
// runtime stays visible as the tree grows: fastgrlint is a tier-1 gate,
// and a gate that creeps from seconds to minutes is a regression like
// any other.
type lintReport struct {
	Packages    int     `json:"packages"`
	Files       int     `json:"files"`
	Findings    int     `json:"findings"`
	WallMs      float64 `json:"wall_ms"`
	FilesPerSec float64 `json:"files_per_sec"`

	// Per-phase cost: load/flowgraph plus one entry per enabled check,
	// so a slow check is identifiable without re-profiling.
	Checks map[string]lintCheckStat `json:"checks"`

	// The runtime gate: wall_ms against the frozen pre-flow-layer
	// baseline. -regress fails the build when the full suite costs more
	// than max_wall_ratio times the old one.
	BaselineWallMs float64 `json:"baseline_wall_ms"`
	WallRatio      float64 `json:"wall_ratio"`
	MaxWallRatio   float64 `json:"max_wall_ratio"`

	// Meta fingerprints the measurement host for -regress (stamp.go).
	Meta BenchMeta `json:"meta"`
}

// lintCheckStat is one phase's share of the run.
type lintCheckStat struct {
	WallMs   float64 `json:"wall_ms"`
	Findings int     `json:"findings"`
}

// lintBaselineWallMs is the measured full-suite wall time before the
// interprocedural flow layer existed (the PR 3 artifact), the
// denominator of the runtime gate.
const lintBaselineWallMs = 2958.791

// lintMaxWallRatio caps how much the flow layer may slow the full
// suite relative to that baseline.
const lintMaxWallRatio = 2.0

// runLint measures one cold run of the full suite (loading, type
// checking and every check, gofmt verification included) over the whole
// module — the same configuration tier1.sh gates on.
func runLint(out string) error {
	moduleDir, err := lintModuleRoot()
	if err != nil {
		return err
	}
	start := time.Now()
	loader, err := lint.NewLoader(moduleDir)
	if err != nil {
		return err
	}
	runner := &lint.Runner{Loader: loader, Policy: lint.DefaultPolicy(), Gofmt: true}
	findings, err := runner.Run("./...")
	if err != nil {
		return err
	}
	wall := time.Since(start)

	dirs, err := loader.PackageDirs([]string{"./..."})
	if err != nil {
		return err
	}
	files := 0
	for _, dir := range dirs {
		p, err := loader.LoadDir(dir)
		if err != nil {
			continue
		}
		files += len(p.FileNames)
	}

	rep := lintReport{
		Packages:       len(dirs),
		Files:          files,
		Findings:       len(findings),
		WallMs:         float64(wall.Microseconds()) / 1e3,
		Checks:         map[string]lintCheckStat{},
		BaselineWallMs: lintBaselineWallMs,
		MaxWallRatio:   lintMaxWallRatio,
	}
	if wall > 0 {
		rep.FilesPerSec = float64(files) / wall.Seconds()
	}
	rep.WallRatio = rep.WallMs / lintBaselineWallMs
	for _, st := range runner.Stats() {
		rep.Checks[st.Check] = lintCheckStat{WallMs: st.WallMs, Findings: st.Findings}
	}
	rep.Meta = currentBenchMeta()
	fmt.Printf("lint: %d packages, %d files, %d findings in %.0fms (%.0f files/sec, %.2fx baseline)\n",
		rep.Packages, rep.Files, rep.Findings, rep.WallMs, rep.FilesPerSec, rep.WallRatio)
	var gate error
	if rep.WallRatio > lintMaxWallRatio {
		gate = fmt.Errorf("lint suite took %.0fms, %.2fx the %.0fms baseline (limit %.1fx)",
			rep.WallMs, rep.WallRatio, rep.BaselineWallMs, lintMaxWallRatio)
	}
	return writeRecord(out, "lint analyzer cost record", rep, gate)
}

// lintModuleRoot walks up from the working directory to the nearest
// go.mod.
func lintModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
