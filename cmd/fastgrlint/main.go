// Command fastgrlint runs the repo's static invariant net (package
// internal/lint) over the tree: determinism-critical packages may not
// read the wall clock or the global rand source, map iteration may not
// produce order-sensitive output, goroutines spawn only through the
// executor packages, recover() lives only in the fault containment
// package, internal/obs stays nil-safe, and atomically accessed fields
// stay atomic everywhere. On top of the per-function checks, the
// interprocedural flow layer (internal/lint/flow) verifies that
// wall-clock taint never reaches routing data (walltaint), durable
// writes route through internal/atomicio (writeroute), and worker-reachable
// code honors the shard coordinator discipline (shardisolation). See
// DESIGN.md, "Static invariants".
//
// Usage:
//
//	fastgrlint [-fmt] [-self] [packages]
//
// Packages are directories relative to the module root; "dir/..."
// walks recursively and the default is "./...". -self instead runs the
// analyzer over its own implementation plus the fixture module and
// verifies both against their contracts (clean tree, golden findings).
// Exit status is 0 on a clean tree, 1 when there are findings, 2 on
// usage or load errors. Packages whose imports degraded to placeholder
// packages are reported as warnings on stderr (reduced analysis
// coverage), without affecting the exit status.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fastgr/internal/lint"
)

func main() {
	gofmt := flag.Bool("fmt", false, "also verify every .go file (tests included) is gofmt-formatted")
	self := flag.Bool("self", false, "run the analyzer over internal/lint and the fixture module; verify hygiene and goldens")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: fastgrlint [-fmt] [-self] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	moduleDir, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	if *self {
		runSelf(moduleDir)
		return
	}
	loader, err := lint.NewLoader(moduleDir)
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	runner := &lint.Runner{Loader: loader, Policy: lint.DefaultPolicy(), Gofmt: *gofmt}
	findings, err := runner.Run(patterns...)
	if err != nil {
		fatal(err)
	}
	warnDegraded(loader, patterns, moduleDir)
	for _, f := range findings {
		fmt.Println(f.Render(moduleDir))
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "fastgrlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// runSelf is the -self mode: the analyzer's own hygiene gate. Exit 1 on
// any divergence so tier1 can wire it as a step.
func runSelf(moduleDir string) {
	problems, err := lint.SelfCheck(moduleDir, filepath.Join("internal", "lint"))
	if err != nil {
		fatal(err)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "fastgrlint: self-check: %d divergence(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("fastgrlint: self-check clean (internal/lint + fixture module)")
}

// warnDegraded reports every analyzed package whose imports fell back
// to placeholder packages: the run still completed, but typed
// refinements (detmap, atomic-consistency, the flow engines) saw less
// than the whole truth there. Warnings only — the exit code is the
// findings', not the environment's.
func warnDegraded(loader *lint.Loader, patterns []string, moduleDir string) {
	dirs, err := loader.PackageDirs(patterns)
	if err != nil {
		return
	}
	for _, dir := range dirs {
		p, err := loader.LoadDir(dir)
		if err != nil {
			continue
		}
		if deg := loader.DegradedImports(p); len(deg) > 0 {
			fmt.Fprintf(os.Stderr, "fastgrlint: warning: %s: degraded analysis (placeholder imports: %s)\n",
				p.Path, strings.Join(deg, ", "))
		}
	}
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
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
			return "", fmt.Errorf("fastgrlint: no go.mod found above the working directory")
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fastgrlint:", err)
	os.Exit(2)
}
