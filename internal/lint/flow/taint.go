package flow

import (
	"fmt"
	"go/ast"
	"go/types"
)

// CheckWallTaint closes the loophole in the package-level detwall check:
// detwall-exempt packages (obs, cmd, examples) may legally read the
// wall clock, but nothing stops a wall-derived value from flowing back
// into the routing pipeline through a return value, a parameter or a
// struct field — which would break the byte-identical contract just as
// surely as a direct time.Now in route code.
//
// The engine runs a forward taint fixpoint over the whole module. Taint
// values are parameter-polymorphic: a value carries a direct bit ("a
// wall read definitely feeds this") plus a symbolic set of parameter
// objects it depends on. Function summaries are computed from the
// symbolic form, so `geom.Max` called once with a wall-derived argument
// in bench code does NOT start returning taint to every other caller —
// the call-site result substitutes the actual arguments into the
// callee's parameter dependencies. Actual taint crosses call boundaries
// separately, through paramTaint: a parameter that some call site feeds
// an effectively-tainted argument. Effective taint (the thing findings
// fire on) is the direct bit, or any symbolic dependency on a
// wall-poisoned parameter.
//
//   - seeds: results of time.Now and time.Since, anywhere;
//   - propagation: assignments, composite literals, arithmetic,
//     conversions, container elements (coarsely, by tainting the
//     container), returns (per-function summary: direct bit + parameter
//     dependency set), and call arguments into paramTaint;
//   - declassification: reads of fields matching Config.SanctionedFields
//     are clean, and writes into them are not findings — these are the
//     documented host-wall report columns excluded from the
//     bit-identical contract.
//
// Findings fire at the boundary where taint enters sink data:
//
//  1. an effectively-tainted value stored into a non-sanctioned field of
//     a struct owned by a sink package (wherever the write happens), and
//  2. an effectively-tainted argument passed to a sink-package function
//     from a non-sink package (flows internal to the sinks are caught at
//     rule 1's field writes, which avoids re-reporting every hop).
//
// Soundness caveats: aliasing through pointers is not modeled (a tainted
// value stored through an alias of a sink struct escapes the check);
// out-of-module callees conservatively propagate input taint to their
// output but cannot introduce parameter dependencies of their own; and
// package-level variables collapse to the direct bit (a symbolic
// dependency makes no sense outside its function).

// tval is a taint value: the monotone join-semilattice element the
// fixpoint computes per variable, field container and function return.
type tval struct {
	direct bool
	params map[*types.Var]bool // symbolic parameter/receiver dependencies
}

func (v *tval) empty() bool { return v == nil || (!v.direct && len(v.params) == 0) }

// join merges src into dst, reporting growth. dst may be nil (allocated
// on demand); the (possibly new) value is returned.
func join(dst, src *tval) (*tval, bool) {
	if src.empty() {
		return dst, false
	}
	if dst == nil {
		dst = &tval{}
	}
	changed := false
	if src.direct && !dst.direct {
		dst.direct = true
		changed = true
	}
	for p := range src.params {
		if !dst.params[p] {
			if dst.params == nil {
				dst.params = map[*types.Var]bool{}
			}
			dst.params[p] = true
			changed = true
		}
	}
	return dst, changed
}

type taintEngine struct {
	cfg  Config
	g    *Graph
	pkgs []*Pkg

	vals       map[types.Object]*tval // locals and package vars
	paramTaint map[*types.Var]bool    // params fed an effectively-tainted arg
	fields     map[types.Object]bool  // struct fields with an effectively-tainted write
	retvals    map[*Node]*tval        // per-function return summaries
	isParam    map[*types.Var]bool    // every param/receiver object in the module

	changed  bool
	report   bool
	findings []Finding
}

// CheckWallTaintFn runs the walltaint check over the graph.
func CheckWallTaintFn(pkgs []*Pkg, g *Graph, cfg Config) []Finding {
	if len(cfg.SinkPkgs) == 0 {
		return nil
	}
	e := &taintEngine{
		cfg: cfg, g: g, pkgs: pkgs,
		vals:       map[types.Object]*tval{},
		paramTaint: map[*types.Var]bool{},
		fields:     map[types.Object]bool{},
		retvals:    map[*Node]*tval{},
		isParam:    paramSet(g),
	}
	// Fixpoint: each pass walks every function body, growing the taint
	// maps monotonically. The maps only grow, so this terminates; the
	// cap is a safety net, not a tuning knob.
	for i := 0; i < 40; i++ {
		e.changed = false
		for _, n := range g.Nodes {
			e.walkNode(n)
		}
		if !e.changed {
			break
		}
	}
	// Reporting pass over the converged state.
	e.report = true
	for _, n := range g.Nodes {
		e.walkNode(n)
	}
	sortFindings(e.findings)
	return e.findings
}

// eff is effective taint: the direct bit, or a symbolic dependency on a
// parameter some call site actually poisons. This is what findings and
// cross-call propagation fire on.
func (e *taintEngine) eff(v *tval) bool {
	if v == nil {
		return false
	}
	if v.direct {
		return true
	}
	for p := range v.params {
		if e.paramTaint[p] {
			return true
		}
	}
	return false
}

func (e *taintEngine) walkNode(n *Node) {
	p := n.Pkg
	n.WalkBody(func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.AssignStmt:
			e.assign(p, s.Lhs, s.Rhs)
		case *ast.RangeStmt:
			if v := e.eval(p, s.X); !v.empty() {
				e.assignVal(p, s.Key, v)
				e.assignVal(p, s.Value, v)
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				e.joinRet(n, e.eval(p, r))
			}
		case *ast.CallExpr:
			e.callEffects(p, s)
		case *ast.CompositeLit:
			e.compositeWrite(p, s)
		case *ast.IncDecStmt:
			// x++ neither introduces nor clears taint.
		}
		return true
	})
	// A function whose named results carry taint also returns it (naked
	// returns).
	if n.Sig != nil {
		res := n.Sig.Results()
		for i := 0; i < res.Len(); i++ {
			if v := res.At(i); v.Name() != "" {
				if lv := e.vals[v]; !lv.empty() {
					e.joinRet(n, lv)
				}
			}
		}
	}
}

func (e *taintEngine) joinRet(n *Node, v *tval) {
	nv, changed := join(e.retvals[n], v)
	if changed {
		e.retvals[n] = nv
		e.changed = true
	}
}

// assign propagates rhs taint into lhs targets and reports sink-field
// writes. Multi-value forms (`a, b := f()`) spread the call's taint over
// every target.
func (e *taintEngine) assign(p *Pkg, lhs, rhs []ast.Expr) {
	if len(lhs) != len(rhs) {
		if len(rhs) == 1 {
			if v := e.eval(p, rhs[0]); !v.empty() {
				for _, l := range lhs {
					e.assignVal(p, l, v)
				}
			}
		}
		return
	}
	for i := range lhs {
		if v := e.eval(p, rhs[i]); !v.empty() {
			e.assignVal(p, lhs[i], v)
		}
	}
}

// assignVal merges a taint value into an assignment target: variables
// directly, field selectors by field object (reporting sink writes),
// container element writes by tainting the container.
func (e *taintEngine) assignVal(p *Pkg, l ast.Expr, v *tval) {
	switch l := ast.Unparen(l).(type) {
	case nil:
		return
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := p.Info.Defs[l]
		if obj == nil {
			obj = p.Info.Uses[l]
		}
		vr, ok := obj.(*types.Var)
		if !ok {
			return
		}
		store := v
		if vr.Parent() != nil && vr.Pkg() != nil && vr.Parent() == vr.Pkg().Scope() {
			// Package-level var: symbolic parameter dependencies make no
			// sense outside their function; collapse to effective taint.
			store = &tval{direct: e.eff(v)}
		}
		nv, changed := join(e.vals[vr], store)
		if changed {
			e.vals[vr] = nv
			e.changed = true
		}
	case *ast.SelectorExpr:
		sel, ok := p.Info.Selections[l]
		if !ok {
			return
		}
		f, ok := sel.Obj().(*types.Var)
		if !ok || !f.IsField() {
			return
		}
		key := fieldKey(sel.Recv(), f)
		if matchAnyPattern(e.cfg.SanctionedFields, key) {
			return // declared wall column: write is the sanctioned use
		}
		if e.eff(v) {
			if !e.fields[f] {
				e.fields[f] = true
				e.changed = true
			}
			if e.report && f.Pkg() != nil && matchPkg(e.cfg.SinkPkgs, f.Pkg().Path()) {
				e.findings = append(e.findings, Finding{
					Pos:   p.Fset.Position(l.Pos()),
					Check: CheckWallTaint,
					Msg: fmt.Sprintf("wall-clock-derived value stored in %s, a field of routing-sink package %s",
						key, f.Pkg().Path()),
					Remedy: "compute the value from deterministic inputs, or declare the field a sanctioned wall column in the flow policy",
				})
			}
		}
	case *ast.IndexExpr:
		e.assignVal(p, l.X, v) // coarse: element write taints the container
	case *ast.StarExpr:
		e.assignVal(p, l.X, v)
	}
}

// compositeWrite reports tainted values placed into sink-struct fields
// by keyed composite literals (`core.Report{Score: wall}`).
func (e *taintEngine) compositeWrite(p *Pkg, lit *ast.CompositeLit) {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		f, ok := p.Info.Uses[key].(*types.Var)
		if !ok || !f.IsField() {
			continue
		}
		fk := fieldKey(p.Info.TypeOf(lit), f)
		if matchAnyPattern(e.cfg.SanctionedFields, fk) {
			continue
		}
		if !e.eff(e.eval(p, kv.Value)) {
			continue
		}
		if !e.fields[f] {
			e.fields[f] = true
			e.changed = true
		}
		if e.report && f.Pkg() != nil && matchPkg(e.cfg.SinkPkgs, f.Pkg().Path()) {
			e.findings = append(e.findings, Finding{
				Pos:   p.Fset.Position(kv.Pos()),
				Check: CheckWallTaint,
				Msg: fmt.Sprintf("wall-clock-derived value stored in %s, a field of routing-sink package %s",
					fk, f.Pkg().Path()),
				Remedy: "compute the value from deterministic inputs, or declare the field a sanctioned wall column in the flow policy",
			})
		}
	}
}

// callEffects handles a call statementwise: effectively-tainted
// arguments poison the callee's parameter objects (paramTaint), and a
// tainted argument crossing from a non-sink package into a sink-package
// function is a finding.
func (e *taintEngine) callEffects(p *Pkg, call *ast.CallExpr) {
	if isConversion(p, call) {
		return
	}
	callee := calleeOf(p, call)
	targets := e.callTargets(p, call, callee)
	sink := callee != nil && callee.Pkg() != nil && matchPkg(e.cfg.SinkPkgs, callee.Pkg().Path())
	fromSink := matchPkg(e.cfg.SinkPkgs, p.Path)
	for i, arg := range call.Args {
		av := e.eval(p, arg)
		if !e.eff(av) {
			continue
		}
		for _, node := range targets {
			e.poisonParam(node, i)
		}
		if e.report && sink && !fromSink {
			e.findings = append(e.findings, Finding{
				Pos:   p.Fset.Position(arg.Pos()),
				Check: CheckWallTaint,
				Msg: fmt.Sprintf("wall-clock-derived value passed to %s in routing-sink package %s",
					funcKey(callee), callee.Pkg().Path()),
				Remedy: "pass deterministic inputs across the pipeline boundary; report host wall time through a sanctioned wall column instead",
			})
		}
	}
	// A method call on an effectively-tainted receiver poisons the
	// receiver parameter.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && e.eff(e.eval(p, sel.X)) {
		for _, node := range targets {
			if node.Sig != nil && node.Sig.Recv() != nil {
				e.poison(node.Sig.Recv())
			}
		}
	}
}

// callTargets resolves a call to its module-internal candidate nodes:
// the static callee, or the recorded function values of a variable.
func (e *taintEngine) callTargets(p *Pkg, call *ast.CallExpr, callee *types.Func) []*Node {
	if callee != nil {
		if n := e.g.ByFunc[callee]; n != nil {
			return []*Node{n}
		}
		return nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		if n := e.g.ByLit[fun]; n != nil {
			return []*Node{n}
		}
	case *ast.Ident:
		if v, ok := p.Info.Uses[fun].(*types.Var); ok {
			return e.g.VarFuncs[v]
		}
	}
	return nil
}

func (e *taintEngine) poisonParam(n *Node, i int) {
	if n.Sig == nil {
		return
	}
	params := n.Sig.Params()
	if n.Sig.Variadic() && i >= params.Len()-1 {
		i = params.Len() - 1
	}
	if i >= 0 && i < params.Len() {
		e.poison(params.At(i))
	}
}

func (e *taintEngine) poison(p *types.Var) {
	if !e.paramTaint[p] {
		e.paramTaint[p] = true
		e.changed = true
	}
}

// ownParam reports whether p is a parameter or the receiver of n.
func ownParam(n *Node, p *types.Var) (int, bool) {
	if n.Sig == nil {
		return 0, false
	}
	if r := n.Sig.Recv(); r != nil && r == p {
		return -1, true
	}
	for i := 0; i < n.Sig.Params().Len(); i++ {
		if n.Sig.Params().At(i) == p {
			return i, true
		}
	}
	return 0, false
}

// eval computes an expression's taint value under the current fixpoint
// state. The result is fresh or shared-read-only; callers must not
// mutate it (join copies).
func (e *taintEngine) eval(p *Pkg, expr ast.Expr) *tval {
	switch x := ast.Unparen(expr).(type) {
	case nil:
		return nil
	case *ast.Ident:
		obj := p.Info.Uses[x]
		if obj == nil {
			obj = p.Info.Defs[x]
		}
		vr, ok := obj.(*types.Var)
		if !ok {
			return nil
		}
		v := e.vals[vr]
		if vr.IsField() {
			return v
		}
		// A parameter contributes itself as a symbolic dependency on top
		// of anything assigned to it locally.
		if e.isParam[vr] {
			out := &tval{params: map[*types.Var]bool{vr: true}}
			out, _ = join(out, &tval{direct: v != nil && v.direct})
			if v != nil {
				out, _ = join(out, v)
			}
			return out
		}
		return v
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[x]; ok {
			if f, ok := sel.Obj().(*types.Var); ok && f.IsField() {
				if matchAnyPattern(e.cfg.SanctionedFields, fieldKey(sel.Recv(), f)) {
					return nil // sanctioned read declassifies
				}
				// Field-granular on purpose: the container's taint does
				// NOT smear into every field read. Observability structs
				// (tracers, stopwatches) legitimately hold wall fields
				// and thread through the whole pipeline; only extracting
				// a tainted field yields tainted data.
				return &tval{direct: e.fields[f]}
			}
			return nil // method value
		}
		// Package-qualified var (pkg.V).
		if vr, ok := p.Info.Uses[x.Sel].(*types.Var); ok {
			return e.vals[vr]
		}
		return nil
	case *ast.CallExpr:
		return e.evalCall(p, x)
	case *ast.BinaryExpr:
		out, _ := join(nil, orEmpty(e.eval(p, x.X)))
		out, _ = join(out, orEmpty(e.eval(p, x.Y)))
		return out
	case *ast.UnaryExpr:
		return e.eval(p, x.X)
	case *ast.StarExpr:
		return e.eval(p, x.X)
	case *ast.IndexExpr:
		return e.eval(p, x.X)
	case *ast.SliceExpr:
		return e.eval(p, x.X)
	case *ast.TypeAssertExpr:
		return e.eval(p, x.X)
	case *ast.CompositeLit:
		// Keyed struct-field slots mark the field object (compositeWrite)
		// instead of tainting the whole value — a Tracer{epoch: now}
		// is an observability handle, not wall data. Slice, array and map
		// elements taint the container: those ARE the data.
		var out *tval
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok {
					if f, ok := p.Info.Uses[key].(*types.Var); ok && f.IsField() {
						continue // field-granular: see compositeWrite
					}
				}
				out, _ = join(out, orEmpty(e.eval(p, kv.Value)))
				continue
			}
			out, _ = join(out, orEmpty(e.eval(p, elt)))
		}
		return out
	}
	return nil
}

// evalCall computes a call expression's taint: the seeds, module
// callees via their parameter-polymorphic summaries, out-of-module
// callees conservatively (input taint flows to the output).
func (e *taintEngine) evalCall(p *Pkg, x *ast.CallExpr) *tval {
	if isConversion(p, x) {
		if len(x.Args) == 1 {
			return e.eval(p, x.Args[0])
		}
		return nil
	}
	callee := calleeOf(p, x)
	if callee != nil {
		switch funcKey(callee) {
		case "time.Now", "time.Since":
			return &tval{direct: true} // the seeds
		}
	}
	targets := e.callTargets(p, x, callee)
	if len(targets) > 0 {
		var out *tval
		for _, n := range targets {
			out, _ = join(out, orEmpty(e.substitute(p, x, n)))
		}
		return out
	}
	// Out-of-module callee (or unresolved dynamic call): conservative —
	// input taint flows to the output (duration.Seconds, fmt.Sprintf).
	var out *tval
	for _, arg := range x.Args {
		out, _ = join(out, orEmpty(e.eval(p, arg)))
	}
	if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := p.Info.Selections[sel]; isSel {
			out, _ = join(out, orEmpty(e.eval(p, sel.X)))
		}
	}
	return out
}

// substitute maps a callee's return summary into the caller's context:
// the callee's own parameter dependencies are replaced by the taint of
// the corresponding call-site arguments; dependencies captured from an
// enclosing function (closures) pass through unchanged.
func (e *taintEngine) substitute(p *Pkg, call *ast.CallExpr, n *Node) *tval {
	rv := e.retvals[n]
	if rv.empty() {
		return nil
	}
	out := &tval{direct: rv.direct}
	for dep := range rv.params {
		idx, own := ownParam(n, dep)
		if !own {
			// Captured from an enclosing scope: keep symbolic.
			out, _ = join(out, &tval{params: map[*types.Var]bool{dep: true}})
			continue
		}
		var argv *tval
		if idx == -1 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				argv = e.eval(p, sel.X)
			}
		} else if n.Sig.Variadic() && idx == n.Sig.Params().Len()-1 {
			for i := idx; i < len(call.Args); i++ {
				argv, _ = join(argv, orEmpty(e.eval(p, call.Args[i])))
			}
		} else if idx < len(call.Args) {
			argv = e.eval(p, call.Args[idx])
		}
		if argv != nil {
			out, _ = join(out, argv)
		}
		// The parameter object itself may also be globally poisoned;
		// keeping the dependency preserves that path.
		out, _ = join(out, &tval{params: map[*types.Var]bool{dep: true}})
	}
	return out
}

func orEmpty(v *tval) *tval {
	if v == nil {
		return &tval{}
	}
	return v
}

// paramSet indexes every parameter and receiver object declared by the
// module's functions, so ident evaluation can recognize them. (go/types
// only grew a Var.Kind accessor after the toolchain this repo targets.)
func paramSet(g *Graph) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	for _, n := range g.Nodes {
		if n.Sig == nil {
			continue
		}
		if r := n.Sig.Recv(); r != nil {
			out[r] = true
		}
		for i := 0; i < n.Sig.Params().Len(); i++ {
			out[n.Sig.Params().At(i)] = true
		}
	}
	return out
}
