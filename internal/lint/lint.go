// Package lint is fastgr's static-analysis net: a small analyzer
// framework built only on the standard library's go/parser, go/ast and
// go/types (no golang.org/x/tools — the tree must build offline and
// dependency-free) plus the checks that machine-enforce the repo's two
// load-bearing contracts:
//
//   - determinism — routed geometry, modeled times and reported quality
//     are bit-identical at every ExecWorkers count (package taskflow's
//     contract, proven by core's determinism suite);
//   - passive observability — package obs may time things, but nil
//     handles are no-ops and the wall clock never feeds a result.
//
// The per-function checks are complemented by the interprocedural layer
// in the flow subpackage: a module-wide call graph with a forward taint
// engine (walltaint), a tree-wide crash-safe-write check (writeroute)
// and a worker-reachability engine (shardisolation). The flow checks are
// cross-package by construction, so their suppressions match by owning
// file, like atomic-consistency.
//
// Checks report Findings; a finding can be suppressed with a
//
//	//lint:ignore <check> <reason>
//
// comment. A suppression covers the line it sits on and — when the next
// line opens a declaration or statement — that whole node, so one
// comment on a func declaration covers every finding inside it. A
//
//	//lint:file-ignore <check> <reason>
//
// comment anywhere in a file covers every finding of that check in the
// file. Suppressions are themselves verified: one without a reason, or
// one that matches no finding, is an error — the suppression table can
// only shrink.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"

	"fastgr/internal/lint/flow"
	"fastgr/internal/obs"
)

// Check names. The policy table and suppression comments refer to these.
// The last three are the interprocedural flow checks, re-exported from
// the flow subpackage so callers need only this package's vocabulary.
const (
	CheckDetwall     = "detwall"
	CheckDetmap      = "detmap"
	CheckGoroutine   = "goroutine-hygiene"
	CheckRecover     = "recover-hygiene"
	CheckObsNilsafe  = "obs-nilsafe"
	CheckAtomic      = "atomic-consistency"
	CheckSuppression = "suppression" // meta-check: malformed or unused //lint:ignore
	CheckGofmt       = "gofmt"

	CheckWallTaint      = flow.CheckWallTaint
	CheckWriteRoute     = flow.CheckWriteRoute
	CheckShardIsolation = flow.CheckShardIsolation
)

// crossPackageChecks are the checks whose findings a single package's
// pass cannot produce: they are matched against suppressions by the file
// that owns each finding, after every package is analyzed.
var crossPackageChecks = map[string]bool{
	CheckAtomic:         true,
	CheckWallTaint:      true,
	CheckWriteRoute:     true,
	CheckShardIsolation: true,
}

// Finding is one rule violation at a position.
type Finding struct {
	Pos    token.Position
	Check  string
	Msg    string
	Remedy string // one-line fix hint, rendered after the message
}

// String renders the finding as file:line: [check] message (remedy),
// with the file relative to dir when possible.
func (f Finding) String() string { return f.Render("") }

// Render is String with file paths shown relative to dir.
func (f Finding) Render(dir string) string {
	file := f.Pos.Filename
	if dir != "" {
		if rel, err := filepath.Rel(dir, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	s := fmt.Sprintf("%s:%d: [%s] %s", file, f.Pos.Line, f.Check, f.Msg)
	if f.Remedy != "" {
		s += " (" + f.Remedy + ")"
	}
	return s
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
}

// CheckStat is the cost and yield of one analysis phase: the named
// checks, plus "load" (parsing + type checking) and "flowgraph" (call
// graph construction shared by the flow checks). Findings counts are
// post-suppression — what a run actually reports.
type CheckStat struct {
	Check    string
	WallMs   float64
	Findings int
}

// Runner applies the policy table to a set of packages and returns the
// surviving findings.
type Runner struct {
	Loader *Loader
	Policy Policy
	// Gofmt additionally verifies that every .go file (tests included)
	// is gofmt-formatted — the driver's -fmt flag.
	Gofmt bool

	statMs map[string]float64
	counts map[string]int
}

// Stats returns per-phase wall time and finding counts for the last Run,
// sorted by phase name. Timing goes through obs.StartStopwatch — the
// analyzer obeys the detwall contract it enforces.
func (r *Runner) Stats() []CheckStat {
	keys := map[string]bool{}
	for k := range r.statMs {
		keys[k] = true
	}
	for k := range r.counts {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]CheckStat, 0, len(names))
	for _, k := range names {
		out = append(out, CheckStat{Check: k, WallMs: r.statMs[k], Findings: r.counts[k]})
	}
	return out
}

// Run lints the packages matched by the patterns (driver syntax: a
// directory, or dir/... for a recursive walk) and returns all findings,
// sorted by position. An empty slice means the tree is clean.
func (r *Runner) Run(patterns ...string) ([]Finding, error) {
	r.statMs = map[string]float64{}
	r.counts = map[string]int{}
	timed := func(phase string, fn func() []Finding) []Finding {
		sw := obs.StartStopwatch()
		fs := fn()
		r.statMs[phase] += float64(sw.Elapsed().Microseconds()) / 1e3
		return fs
	}

	var pkgs []*Package
	var loadErr error
	timed("load", func() []Finding {
		var dirs []string
		if dirs, loadErr = r.Loader.PackageDirs(patterns); loadErr != nil {
			return nil
		}
		for _, dir := range dirs {
			p, err := r.Loader.LoadDir(dir)
			if err != nil {
				loadErr = err
				return nil
			}
			pkgs = append(pkgs, p)
		}
		return nil
	})
	if loadErr != nil {
		return nil, loadErr
	}

	var findings []Finding
	for _, p := range pkgs {
		p := p
		var raw []Finding
		if r.Policy.detwallApplies(p.Path) {
			raw = append(raw, timed(CheckDetwall, func() []Finding { return checkDetwall(p) })...)
		}
		if r.Policy.detmapApplies(p.Path) {
			raw = append(raw, timed(CheckDetmap, func() []Finding { return checkDetmap(p) })...)
		}
		if !r.Policy.goroutineAllowed(p.Path) {
			raw = append(raw, timed(CheckGoroutine, func() []Finding { return checkGoroutine(p) })...)
		}
		if !r.Policy.recoverAllowed(p.Path) {
			raw = append(raw, timed(CheckRecover, func() []Finding { return checkRecover(p) })...)
		}
		if r.Policy.nilsafeApplies(p.Path) {
			raw = append(raw, timed(CheckObsNilsafe, func() []Finding { return checkNilsafe(p) })...)
		}
		findings = append(findings, applySuppressions(p, raw)...)
	}

	// Cross-package checks: atomic-consistency (a field atomically
	// written in one package and plainly read in another is exactly the
	// bug class) plus the interprocedural flow layer.
	cross := timed(CheckAtomic, func() []Finding { return checkAtomic(pkgs) })
	if r.Policy.Flow.Enabled() {
		fpkgs := make([]*flow.Pkg, len(pkgs))
		for i, p := range pkgs {
			fpkgs[i] = &flow.Pkg{Path: p.Path, Fset: p.Fset, Files: p.Files, Info: p.Info, Types: p.Types}
		}
		var g *flow.Graph
		timed("flowgraph", func() []Finding {
			g = flow.Build(fpkgs, r.Policy.Flow)
			return nil
		})
		cross = append(cross, timed(CheckWallTaint, func() []Finding {
			return flowFindings(flow.CheckWallTaintFn(fpkgs, g, r.Policy.Flow))
		})...)
		cross = append(cross, timed(CheckWriteRoute, func() []Finding {
			return flowFindings(flow.CheckWriteRouteFn(fpkgs, r.Policy.Flow))
		})...)
		cross = append(cross, timed(CheckShardIsolation, func() []Finding {
			return flowFindings(flow.CheckShardIsolationFn(fpkgs, g, r.Policy.Flow))
		})...)
	}
	findings = append(findings, applySuppressionsByFile(pkgs, cross)...)

	if r.Gofmt {
		findings = append(findings, timed(CheckGofmt, func() []Finding { return checkGofmt(pkgsDirs(pkgs)) })...)
	}
	sortFindings(findings)
	for _, f := range findings {
		r.counts[f.Check]++
	}
	return findings, nil
}

func pkgsDirs(pkgs []*Package) []string {
	dirs := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		dirs = append(dirs, p.Dir)
	}
	return dirs
}

// flowFindings mirrors flow findings into this package's Finding type.
func flowFindings(fs []flow.Finding) []Finding {
	out := make([]Finding, 0, len(fs))
	for _, f := range fs {
		out = append(out, Finding{Pos: f.Pos, Check: f.Check, Msg: f.Msg, Remedy: f.Remedy})
	}
	return out
}

// applySuppressions matches a package's raw findings against its
// //lint:ignore comments: matched findings are dropped, malformed or
// unused suppressions become findings of their own.
func applySuppressions(p *Package, raw []Finding) []Finding {
	var sups []*suppression
	for _, s := range collectSuppressions(p) {
		if !crossPackageChecks[s.check] { // cross-package checks match later
			sups = append(sups, s)
		}
	}
	return matchSuppressions(sups, raw)
}

// applySuppressionsByFile applies suppressions for findings produced by
// the cross-package checks: each finding is matched against the
// suppressions of the package that owns its file. Suppressions that a
// per-package pass already consumed are not re-collected here — only
// suppressions naming the cross-package checks are considered.
func applySuppressionsByFile(pkgs []*Package, raw []Finding) []Finding {
	var out []Finding
	for _, p := range pkgs {
		var sups []*suppression
		for _, s := range collectSuppressions(p) {
			if crossPackageChecks[s.check] {
				sups = append(sups, s)
			}
		}
		var mine []Finding
		for _, f := range raw {
			for _, name := range p.FileNames {
				if f.Pos.Filename == name {
					mine = append(mine, f)
					break
				}
			}
		}
		out = append(out, matchSuppressions(sups, mine)...)
	}
	return out
}

// suppression is one parsed //lint:ignore or //lint:file-ignore comment.
type suppression struct {
	pos      token.Position
	check    string
	reason   string
	fileWide bool // //lint:file-ignore: covers the whole file
	endLine  int  // last covered line; the full span of the decl/stmt the comment annotates
	used     bool
}

// collectSuppressions parses every //lint:ignore and //lint:file-ignore
// comment of the package's non-test files and computes each line
// suppression's coverage span: the comment's own line through the end of
// the declaration or statement opening on that line or the next — so a
// suppression above a func declaration covers the whole function, and
// one above a loop covers the whole loop.
func collectSuppressions(p *Package) []*suppression {
	var sups []*suppression
	for _, f := range p.Files {
		spans := nodeSpans(p, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				fileWide := false
				rest, ok := strings.CutPrefix(text, "lint:ignore")
				if !ok {
					if rest, ok = strings.CutPrefix(text, "lint:file-ignore"); !ok {
						continue
					}
					fileWide = true
				}
				s := &suppression{pos: p.Fset.Position(c.Pos()), fileWide: fileWide}
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					s.check = fields[0]
					s.reason = strings.TrimSpace(strings.Join(fields[1:], " "))
				}
				if !fileWide {
					line := s.pos.Line
					s.endLine = line + 1
					if end := spans[line]; end > s.endLine {
						s.endLine = end
					}
					if end := spans[line+1]; end > s.endLine {
						s.endLine = end
					}
				}
				sups = append(sups, s)
			}
		}
	}
	return sups
}

// nodeSpans maps each line on which a declaration or statement starts to
// the last line of the outermost such node — the coverage a suppression
// annotating that line earns. The file node itself is excluded (file
// scope is what //lint:file-ignore is for).
func nodeSpans(p *Package, f *ast.File) map[int]int {
	spans := map[int]int{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.File, *ast.Comment, *ast.CommentGroup:
			return true
		}
		start := p.Fset.Position(n.Pos()).Line
		end := p.Fset.Position(n.End()).Line
		if end > spans[start] {
			spans[start] = end
		}
		return true
	})
	return spans
}

// matchSuppressions drops findings covered by a suppression for the same
// check — within its line span, or anywhere in the file for a
// file-ignore — then reports malformed (no reason) and unused
// suppressions as findings.
func matchSuppressions(sups []*suppression, raw []Finding) []Finding {
	var out []Finding
	for _, f := range raw {
		suppressed := false
		for _, s := range sups {
			if s.check != f.Check || s.pos.Filename != f.Pos.Filename {
				continue
			}
			if s.fileWide || (f.Pos.Line >= s.pos.Line && f.Pos.Line <= s.endLine) {
				s.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, f)
		}
	}
	for _, s := range sups {
		form := "//lint:ignore"
		if s.fileWide {
			form = "//lint:file-ignore"
		}
		switch {
		case s.check == "" || s.reason == "":
			out = append(out, Finding{
				Pos:    s.pos,
				Check:  CheckSuppression,
				Msg:    fmt.Sprintf("malformed suppression: want %s <check> <reason>", form),
				Remedy: "state which check is silenced and why",
			})
		case !s.used && s.fileWide:
			out = append(out, Finding{
				Pos:    s.pos,
				Check:  CheckSuppression,
				Msg:    fmt.Sprintf("unused file-ignore for %q: no finding of that check in this file", s.check),
				Remedy: "delete the comment; suppressions must be load-bearing",
			})
		case !s.used:
			out = append(out, Finding{
				Pos:    s.pos,
				Check:  CheckSuppression,
				Msg:    fmt.Sprintf("unused suppression for %q: no finding in its scope (lines %d-%d)", s.check, s.pos.Line, s.endLine),
				Remedy: "delete the comment; suppressions must be load-bearing",
			})
		}
	}
	return out
}
