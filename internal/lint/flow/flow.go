// Package flow is fastgr's interprocedural analysis layer: a
// module-wide call graph built from the same go/types-loaded packages
// the per-function checks in internal/lint run on, plus a forward
// taint-propagation engine and a reverse-reachability engine rooted at
// worker callbacks. Three checks run on top of it:
//
//   - walltaint — values originating at time.Now/time.Since (legal only
//     in detwall-exempt packages) must never flow, through returns,
//     params or struct fields, into the routing pipeline's data
//     structures. Declared wall-report carriers (the *Wall columns) are
//     sanctioned declassification points.
//   - writeroute — file creation and writing stay inside the crash-safe
//     writer package (internal/atomicio); any os.Create/os.WriteFile/
//     os.OpenFile-for-write elsewhere is a finding.
//   - shardisolation — functions reachable from worker-callback roots
//     (taskflow parallel-for and task bodies) must not warm a
//     non-window cost cache, mutate coordinator-owned fields, or emit
//     run-journal events.
//
// The call graph is conservatively over-approximated: static calls,
// method calls resolved through the type checker, and every reference
// to a function value (assignment, argument, bare mention) count as a
// potential call from the referencing function. Soundness caveats are
// documented per engine and in DESIGN.md "Static invariants".
//
// The package depends only on go/ast, go/token and go/types so it
// shares internal/lint's offline, dependency-free story. It is wired
// into the lint Runner through the small Pkg/Finding mirror types below
// (lint imports flow; flow must not import lint).
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Check names, referenced by the policy table, suppression comments and
// the per-check timing report.
const (
	CheckWallTaint      = "walltaint"
	CheckWriteRoute     = "writeroute"
	CheckShardIsolation = "shardisolation"
)

// Checks lists every flow check name, in report order.
func Checks() []string {
	return []string{CheckWallTaint, CheckWriteRoute, CheckShardIsolation}
}

// Pkg is one loaded, type-checked package under analysis — the
// lint.Package fields the flow engines need, mirrored here so the lint
// package can depend on this one without a cycle.
type Pkg struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	Types *types.Package
}

// Finding is one flow-rule violation at a position.
type Finding struct {
	Pos    token.Position
	Check  string
	Msg    string
	Remedy string
}

// Config names the module-specific anchors of the three checks.
// Functions are identified by key: "pkgpath.Func" for package
// functions, "pkgpath.Type.Method" for methods (pointer receivers
// stripped). Field patterns are "pkgpath.Type.Field". Every pattern
// may use '*' wildcards matching any run of characters.
type Config struct {
	// SinkPkgs are the packages whose data wall-clock taint must never
	// reach (walltaint). Package patterns, "/..." subtrees allowed.
	SinkPkgs []string
	// SanctionedFields are field patterns acting as declassification
	// points: a tainted value may be stored there (they are the
	// documented host-wall report columns, excluded from the
	// bit-identical contract), and reads from them are clean.
	SanctionedFields []string
	// WriteAllowedPkgs may call the raw os write APIs (writeroute);
	// everywhere else must route artifact writes through them.
	WriteAllowedPkgs []string
	// SpawnFuncs are the executor entry points whose function-valued
	// arguments become worker roots (shardisolation).
	SpawnFuncs []string
	// WarmFuncs are the cost-cache warm entry points; calling one from
	// worker context is legal only on a window view.
	WarmFuncs []string
	// WindowFuncs construct window views: a warm receiver traced to one
	// of these is sanctioned.
	WindowFuncs []string
	// CoordFields are coordinator-owned field patterns workers must not
	// assign.
	CoordFields []string
	// JournalFuncs emit run-journal events; coordinator-only.
	JournalFuncs []string
}

// Enabled reports whether any check has anchors configured; a zero
// Config disables the flow layer entirely.
func (c Config) Enabled() bool {
	return len(c.SinkPkgs) > 0 || len(c.WriteAllowedPkgs) > 0 ||
		len(c.SpawnFuncs) > 0
}

// funcKey canonicalizes a function object for matching against Config
// patterns: "pkgpath.Name" for package-level functions,
// "pkgpath.RecvType.Name" for methods, receiver pointers stripped.
func funcKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			pkg := ""
			if n.Obj().Pkg() != nil {
				pkg = n.Obj().Pkg().Path() + "."
			}
			return pkg + n.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// fieldKey canonicalizes a struct field for matching against field
// patterns. owner is the selected-from type when known (for promoted
// fields it names the outer struct, which is the type the code spells).
func fieldKey(owner types.Type, v *types.Var) string {
	pkg := ""
	if v.Pkg() != nil {
		pkg = v.Pkg().Path()
	}
	name := "_"
	for owner != nil {
		if p, ok := owner.(*types.Pointer); ok {
			owner = p.Elem()
			continue
		}
		if n, ok := owner.(*types.Named); ok {
			name = n.Obj().Name()
		}
		break
	}
	return pkg + "." + name + "." + v.Name()
}

// wildcard reports whether s matches pattern, where '*' matches any run
// of characters (dots included).
func wildcard(pattern, s string) bool {
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return pattern == s
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	for _, part := range parts[1 : len(parts)-1] {
		i := strings.Index(s, part)
		if i < 0 {
			return false
		}
		s = s[i+len(part):]
	}
	return strings.HasSuffix(s, parts[len(parts)-1])
}

func matchAnyPattern(patterns []string, s string) bool {
	for _, p := range patterns {
		if wildcard(p, s) {
			return true
		}
	}
	return false
}

// matchPkg matches an import path against package patterns (exact,
// trailing "/..." subtree, or wildcard).
func matchPkg(patterns []string, path string) bool {
	for _, p := range patterns {
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			if path == rest || strings.HasPrefix(path, rest+"/") {
				return true
			}
			continue
		}
		if wildcard(p, path) {
			return true
		}
	}
	return false
}

// calleeOf resolves a call expression to the *types.Func it statically
// invokes, or nil for dynamic calls (function values, interface
// methods resolve to the interface method object, which is still
// useful for key matching).
func calleeOf(p *Pkg, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: obs.StartStopwatch(...).
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isConversion reports whether a call expression is a type conversion.
func isConversion(p *Pkg, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call.Fun]
	return ok && tv.IsType()
}

func sortFindings(fs []Finding) {
	// Insertion sort keeps this dependency-free and the slices are tiny.
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && findingLess(fs[j], fs[j-1]); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

func findingLess(a, b Finding) bool {
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
}
