package flow

import (
	"fmt"
	"go/ast"
	"strings"
)

// CheckWriteRouteFn enforces the crash-safety contract tree-wide: every
// durable write goes through the allowed writer packages — in
// internal/atomicio, the temp-file + fsync + rename protocol for
// artifacts, or the append-with-rollback protocol for journals. A raw
// os.Create / os.WriteFile / os.OpenFile-for-write anywhere else can
// leave a torn file behind a crash — exactly what the journals and
// bench artifacts must never do.
//
// Temp-path writes are exempt: a path expression that visibly derives
// from os.TempDir or a *.TempDir() helper (testing.T.TempDir) is scratch
// space, not an artifact. Write intent for os.OpenFile is decided
// syntactically from the O_* flag names in the argument — numeric
// comparison would be platform-dependent and a dynamic flag expression
// is conservatively treated as a write.
func CheckWriteRouteFn(pkgs []*Pkg, cfg Config) []Finding {
	if len(cfg.WriteAllowedPkgs) == 0 {
		return nil
	}
	var findings []Finding
	for _, p := range pkgs {
		if matchPkg(cfg.WriteAllowedPkgs, p.Path) {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeOf(p, call)
				if callee == nil {
					return true
				}
				var pathArg ast.Expr
				switch funcKey(callee) {
				case "os.Create", "os.WriteFile":
					if len(call.Args) > 0 {
						pathArg = call.Args[0]
					}
				case "os.OpenFile":
					if len(call.Args) < 2 || !openFlagsWrite(call.Args[1]) {
						return true
					}
					pathArg = call.Args[0]
				default:
					return true
				}
				if pathArg != nil && tempPath(p, pathArg) {
					return true
				}
				findings = append(findings, Finding{
					Pos:   p.Fset.Position(call.Pos()),
					Check: CheckWriteRoute,
					Msg: fmt.Sprintf("raw %s write outside the crash-safe writer packages (%s)",
						funcKey(callee), strings.Join(cfg.WriteAllowedPkgs, ", ")),
					Remedy: "route the write through internal/atomicio so a crash can't leave a torn artifact",
				})
				return true
			})
		}
	}
	sortFindings(findings)
	return findings
}

// openFlagsWrite decides write intent from the O_* names spelled in an
// os.OpenFile flags argument. No O_* names at all means the flags are
// computed elsewhere — conservatively a write.
func openFlagsWrite(flags ast.Expr) bool {
	write, sawName := false, false
	ast.Inspect(flags, func(n ast.Node) bool {
		var name string
		switch x := n.(type) {
		case *ast.SelectorExpr:
			name = x.Sel.Name
		case *ast.Ident:
			name = x.Name
		default:
			return true
		}
		if strings.HasPrefix(name, "O_") {
			sawName = true
			switch name {
			case "O_WRONLY", "O_RDWR", "O_CREATE", "O_TRUNC", "O_APPEND":
				write = true
			}
		}
		return true
	})
	return write || !sawName
}

// tempPath reports whether a path expression visibly derives from a
// temp-dir helper.
func tempPath(p *Pkg, path ast.Expr) bool {
	temp := false
	ast.Inspect(path, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "TempDir" {
			temp = true
			return false
		}
		return true
	})
	return temp
}
