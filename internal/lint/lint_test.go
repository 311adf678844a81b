package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the fixture golden file")

// TestFixtures runs the full suite over the fixture module and compares
// the rendered findings against the golden file. Every check has a
// firing, a clean and a suppressed fixture; the golden file is the
// contract for what fires and — by omission — what must not.
func TestFixtures(t *testing.T) {
	moduleDir, err := filepath.Abs(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Loader: loader, Policy: FixturePolicy()}
	findings, err := runner.Run("./...")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, f := range findings {
		lines = append(lines, f.Render(moduleDir))
	}
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "expected.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run `go test -run TestFixtures -update ./internal/lint` to create): %v", err)
	}
	want := string(wantBytes)
	if got != want {
		t.Errorf("fixture findings diverge from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestFixtureChecksCovered pins the golden file to the contract that
// every check — the flow layer included — fires at least once on the
// fixtures, so a check that silently stops firing cannot pass by
// emptying the golden file.
func TestFixtureChecksCovered(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "expected.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, check := range []string{
		CheckDetwall, CheckDetmap, CheckGoroutine, CheckRecover,
		CheckObsNilsafe, CheckAtomic, CheckSuppression,
		CheckWallTaint, CheckWriteRoute, CheckShardIsolation,
	} {
		if !strings.Contains(string(data), "["+check+"]") {
			t.Errorf("golden file has no firing case for %s", check)
		}
	}
}

// TestSelfCheck runs the -self mode the tier1 gate wires in: the
// analyzer's own packages must be clean under the default policy and
// the fixture module must reproduce its golden file.
func TestSelfCheck(t *testing.T) {
	moduleDir, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	problems, err := SelfCheck(moduleDir, filepath.Join("internal", "lint"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestLintTreeClean runs the full suite, gofmt included, over the real
// repository: `go test ./...` alone now catches any new violation of
// the determinism, observability and flow contracts.
func TestLintTreeClean(t *testing.T) {
	moduleDir, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Loader: loader, Policy: DefaultPolicy(), Gofmt: true}
	findings, err := runner.Run("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f.Render(moduleDir))
	}
}

// TestRunnerStats pins the per-check timing report the bench harness
// stamps into BENCH_lint.json: every enabled check appears, with the
// load and flowgraph phases, and finding counts match the golden file.
func TestRunnerStats(t *testing.T) {
	moduleDir, err := filepath.Abs(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Loader: loader, Policy: FixturePolicy()}
	findings, err := runner.Run("./...")
	if err != nil {
		t.Fatal(err)
	}
	stats := runner.Stats()
	byCheck := map[string]CheckStat{}
	total := 0
	for _, s := range stats {
		byCheck[s.Check] = s
		total += s.Findings
	}
	if total != len(findings) {
		t.Errorf("stats count %d findings, runner returned %d", total, len(findings))
	}
	for _, phase := range []string{
		"load", "flowgraph", CheckDetwall, CheckDetmap, CheckGoroutine,
		CheckRecover, CheckObsNilsafe, CheckAtomic,
		CheckWallTaint, CheckWriteRoute, CheckShardIsolation,
	} {
		if _, ok := byCheck[phase]; !ok {
			t.Errorf("no stat recorded for phase %q", phase)
		}
	}
	if byCheck["load"].WallMs <= 0 {
		t.Errorf("load phase has no wall time: %+v", byCheck["load"])
	}
	for _, check := range []string{CheckWallTaint, CheckWriteRoute, CheckShardIsolation} {
		if byCheck[check].Findings == 0 {
			t.Errorf("flow check %s reports no findings on the fixture module", check)
		}
	}
}

func TestMatchPath(t *testing.T) {
	cases := []struct {
		pattern, path string
		want          bool
	}{
		{"fastgr/internal/obs", "fastgr/internal/obs", true},
		{"fastgr/internal/obs", "fastgr/internal/obsx", false},
		{"fastgr/cmd/...", "fastgr/cmd/fastgr", true},
		{"fastgr/cmd/...", "fastgr/cmd", true},
		{"fastgr/cmd/...", "fastgr/cmdx", false},
	}
	for _, c := range cases {
		if got := matchPath(c.pattern, c.path); got != c.want {
			t.Errorf("matchPath(%q, %q) = %v, want %v", c.pattern, c.path, got, c.want)
		}
	}
}

// TestLoaderDegradesGracefully pins the offline story: an import the
// stdlib source importer cannot resolve must yield a placeholder
// package, not a load failure — the syntactic checks still run.
func TestLoaderDegradesGracefully(t *testing.T) {
	moduleDir, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	li := (*loaderImporter)(loader)
	pkg, err := li.ImportFrom("no/such/package", "", 0)
	if err != nil {
		t.Fatalf("placeholder import failed: %v", err)
	}
	if pkg.Path() != "no/such/package" || !pkg.Complete() {
		t.Errorf("placeholder package wrong: path=%q complete=%v", pkg.Path(), pkg.Complete())
	}
}

// TestDegradedImports pins the degraded-analysis warning's data source:
// when the stdlib importer is unavailable, every stdlib import of a
// loaded package is recorded and reported by DegradedImports.
func TestDegradedImports(t *testing.T) {
	moduleDir, err := filepath.Abs(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	loader.std = nil // simulate an environment with no stdlib source
	p, err := loader.LoadDir("flowwall")
	if err != nil {
		t.Fatal(err)
	}
	deg := loader.DegradedImports(p)
	found := false
	for _, d := range deg {
		if d == "time" {
			found = true
		}
		if strings.HasPrefix(d, "fixture/") {
			t.Errorf("module-internal import %q reported as degraded", d)
		}
	}
	if !found {
		t.Errorf("DegradedImports(flowwall) = %v, want to include \"time\"", deg)
	}

	// With the stdlib importer working, nothing is degraded.
	loader2, err := NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := loader2.LoadDir("flowwall")
	if err != nil {
		t.Fatal(err)
	}
	if deg := loader2.DegradedImports(p2); len(deg) != 0 {
		t.Errorf("healthy loader reports degraded imports: %v", deg)
	}
}

// TestSuppressionScope pins the suppression engine's scoping rules
// directly (the golden file pins them end to end): a decl-level comment
// covers the whole declaration, a file-ignore covers the file, and both
// of an overlapping pair count as used.
func TestSuppressionScope(t *testing.T) {
	moduleDir, err := filepath.Abs(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := loader.LoadDir("detwall")
	if err != nil {
		t.Fatal(err)
	}
	var declScoped *suppression
	for _, s := range collectSuppressions(p) {
		pos := s.pos
		if filepath.Base(pos.Filename) == "declscope.go" && !s.fileWide && declScoped == nil {
			declScoped = s
		}
	}
	if declScoped == nil {
		t.Fatal("no line suppression collected from declscope.go")
	}
	// The first suppression in declscope.go annotates DeclScoped's
	// declaration; its span must reach past both wall reads (the decl
	// body is 4 lines beyond the comment).
	if declScoped.endLine < declScoped.pos.Line+4 {
		t.Errorf("decl-scoped suppression covers lines %d-%d, want the whole declaration",
			declScoped.pos.Line, declScoped.endLine)
	}

	pm, err := loader.LoadDir("detmap")
	if err != nil {
		t.Fatal(err)
	}
	var fileWide bool
	for _, s := range collectSuppressions(pm) {
		if s.fileWide && s.check == CheckDetmap {
			fileWide = true
		}
	}
	if !fileWide {
		t.Error("no file-wide detmap suppression collected from fileignore.go")
	}
}
