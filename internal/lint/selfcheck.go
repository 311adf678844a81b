package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fastgr/internal/lint/flow"
)

// This file is the analyzer's own hygiene gate: `fastgrlint -self` (and
// TestSelfCheck) runs the suite over internal/lint itself plus the
// fixture module in one invocation, so a change to the analyzer cannot
// silently regress either its own cleanliness or the golden contract of
// what each check fires on.

// FixturePolicy mirrors the shape of DefaultPolicy on the fixture
// module under testdata/mod: one detwall-exempt package (plus the
// flowwall fixture, which models the exemption loophole walltaint
// closes), one sanctioned spawner, one package under the nil-safety
// contract, and the flow anchors below.
func FixturePolicy() Policy {
	return Policy{
		DetwallExempt:    []string{"fixture/exempt", "fixture/flowwall"},
		GoroutineAllowed: []string{"fixture/spawnok"},
		NilsafePackages:  []string{"fixture/nilsafe"},
		RecoverAllowed:   []string{"fixture/faultok"},
		Flow:             FixtureFlowConfig(),
	}
}

// FixtureFlowConfig anchors the flow checks to the fixture module's
// miniature pipeline: flowsink plays route/core/grid, flowatomic plays
// internal/atomicio, and flowexec.Run is the spawn entry point.
func FixtureFlowConfig() flow.Config {
	return flow.Config{
		SinkPkgs:         []string{"fixture/flowsink"},
		SanctionedFields: []string{"fixture/flowsink.Report.WallMs"},
		WriteAllowedPkgs: []string{"fixture/flowatomic"},
		SpawnFuncs:       []string{"fixture/flowexec.Run"},
		WarmFuncs:        []string{"fixture/flowsink.Cache.Warm"},
		WindowFuncs:      []string{"fixture/flowsink.Cache.Window"},
		CoordFields:      []string{"fixture/flowsink.Coord.*"},
		JournalFuncs:     []string{"fixture/flowjournal.Emit"},
	}
}

// FixtureGolden is the golden file recording exactly what the suite
// reports on the fixture module, relative to this package's directory.
const FixtureGolden = "testdata/expected.txt"

// SelfCheck runs the analyzer over its own implementation and the
// fixture module, returning one line per divergence: a finding in
// internal/lint or its subpackages, or a drift between the fixture
// module's findings and the committed golden file. An empty slice means
// the analyzer's own hygiene holds. lintDir is the directory holding
// this package's sources (internal/lint under the module root).
func SelfCheck(moduleDir, lintDir string) ([]string, error) {
	var problems []string

	// 1. The analyzer's own packages must be clean under the policy it
	// enforces on everyone else, gofmt included.
	loader, err := NewLoader(moduleDir)
	if err != nil {
		return nil, err
	}
	runner := &Runner{Loader: loader, Policy: DefaultPolicy(), Gofmt: true}
	findings, err := runner.Run(filepath.Join(lintDir, "..."))
	if err != nil {
		return nil, err
	}
	for _, f := range findings {
		problems = append(problems, "self: "+f.Render(moduleDir))
	}

	// 2. The fixture module must reproduce its golden file exactly: a
	// check that stops firing (or starts over-firing) diverges here.
	fixtureDir := filepath.Join(moduleDir, lintDir, "testdata", "mod")
	floader, err := NewLoader(fixtureDir)
	if err != nil {
		return nil, err
	}
	frunner := &Runner{Loader: floader, Policy: FixturePolicy()}
	ffindings, err := frunner.Run("./...")
	if err != nil {
		return nil, err
	}
	var lines []string
	for _, f := range ffindings {
		lines = append(lines, f.Render(fixtureDir))
	}
	got := strings.Join(lines, "\n") + "\n"
	goldenPath := filepath.Join(moduleDir, lintDir, filepath.FromSlash(FixtureGolden))
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("lint: read fixture golden: %w", err)
	}
	if got != string(want) {
		for _, d := range diffLines(string(want), got) {
			problems = append(problems, "fixture: "+d)
		}
	}
	return problems, nil
}

// diffLines reports the asymmetric difference between two rendered
// finding lists as "-" (expected, missing) and "+" (unexpected) lines.
func diffLines(want, got string) []string {
	count := func(s string) map[string]int {
		m := map[string]int{}
		for _, l := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
			m[l]++
		}
		return m
	}
	w, g := count(want), count(got)
	var out []string
	emit := func(order string, from, against map[string]int, prefix string) {
		seen := map[string]bool{}
		for _, l := range strings.Split(strings.TrimRight(order, "\n"), "\n") {
			if seen[l] {
				continue
			}
			seen[l] = true
			for i := against[l]; i < from[l]; i++ {
				out = append(out, prefix+l)
			}
		}
	}
	emit(want, w, g, "- ")
	emit(got, g, w, "+ ")
	return out
}
