package lint

import "go/ast"

// checkGoroutine flags bare go statements outside the sanctioned
// executor packages (see Policy.GoroutineAllowed). All worker spawning
// must go through the taskflow executor: it is what makes parallel
// execution deterministic and keeps the tracer's one-goroutine-per-lane
// invariant true.
func checkGoroutine(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			out = append(out, Finding{
				Pos:    p.Fset.Position(gs.Pos()),
				Check:  CheckGoroutine,
				Msg:    "bare go statement outside the executor packages",
				Remedy: "run the work through taskflow, or suppress with //lint:ignore goroutine-hygiene <reason>",
			})
			return true
		})
	}
	return out
}
