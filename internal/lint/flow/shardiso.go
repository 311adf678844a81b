package flow

import (
	"fmt"
	"go/ast"
	"go/types"
)

// CheckShardIsolationFn mechanizes the shard pipeline's discipline:
// workers read frozen halos and warm only their own window views; the
// coordinator alone reconciles, warms parent caches, mutates run state
// and writes the journal. Three rules, all over the worker-reachability
// closure (nodes a spawn-site callback may call or reference):
//
//  1. A reachable function must not warm a parent (non-window) cost
//     cache. The receiver of every WarmFuncs call is traced to a
//     provenance: a WindowFuncs result is sanctioned; a field read or
//     unknown source is a finding; a parameter raises an *obligation* on
//     the parameter's owner — every call site that can feed the warm in
//     worker context must pass a window-derived cache. Obligations chain
//     through parameter-passing (routeBatch warms its parameter; its
//     exported caller passes its own parameter through; the pattern pass
//     finally supplies a WindowView, or the stage's view parameter, whose
//     own call site must in turn pass a WindowView — clean).
//     A warm captured into a spawned closure runs in worker context no
//     matter who called the owner, so its obligation checks every call
//     site ("alwaysWorker") — but only when the closure is itself a
//     spawn callback or its owner never runs in worker context; a
//     synchronous inline closure follows its owner's call context (see
//     escalates).
//  2. A reachable function must not call a JournalFuncs entry point.
//  3. A reachable function must not assign (or ++/--) a field matching
//     CoordFields. Element writes through an index expression
//     (r.routes[i] = x) are the sanctioned disjoint-slot pattern and are
//     not flagged.
//
// Soundness caveats: provenance tracing is syntactic def-use with a
// depth cap — a window view laundered through a helper's return value or
// a struct field reads as "unknown" and flags conservatively; dynamic
// dispatch that the value-reference over-approximation doesn't cover
// (values stored into maps and called elsewhere) can under-approximate
// reachability.

type provKind int

const (
	provWindow provKind = iota
	provParam
	provOther
)

type prov struct {
	kind  provKind
	owner *Node        // provParam: the node declaring the parameter
	obj   types.Object // provParam: the parameter object
}

type shardEngine struct {
	cfg  Config
	g    *Graph
	pown map[types.Object]*Node // parameter/receiver object -> declaring node
	defs map[types.Object][]provSrc
}

type provSrc struct {
	pkg *Pkg
	rhs ast.Expr
}

type obligation struct {
	owner *Node
	param types.Object
	// alwaysWorker: the warm runs in worker context regardless of who
	// called owner (it was captured into a spawned closure), so every
	// call site is checked, not just worker-reachable ones.
	alwaysWorker bool
}

// CheckShardIsolationFn runs the shardisolation check over the graph.
func CheckShardIsolationFn(pkgs []*Pkg, g *Graph, cfg Config) []Finding {
	if len(cfg.SpawnFuncs) == 0 {
		return nil
	}
	e := &shardEngine{
		cfg:  cfg,
		g:    g,
		pown: map[types.Object]*Node{},
		defs: map[types.Object][]provSrc{},
	}
	for _, n := range g.Nodes {
		if n.Sig == nil {
			continue
		}
		if r := n.Sig.Recv(); r != nil {
			e.pown[r] = n
		}
		for i := 0; i < n.Sig.Params().Len(); i++ {
			e.pown[n.Sig.Params().At(i)] = n
		}
	}
	for _, n := range g.Nodes {
		e.collectDefs(n)
	}

	var findings []Finding
	var worklist []obligation
	seen := map[obligation]bool{}

	for _, n := range g.Nodes {
		n := n
		n.WalkBody(func(node ast.Node) bool {
			switch s := node.(type) {
			case *ast.CallExpr:
				callee := calleeOf(n.Pkg, s)
				if callee == nil {
					return true
				}
				key := funcKey(callee)
				if g.Reachable(n) && matchAnyPattern(cfg.JournalFuncs, key) {
					findings = append(findings, Finding{
						Pos:   n.Pkg.Fset.Position(s.Pos()),
						Check: CheckShardIsolation,
						Msg:   fmt.Sprintf("worker-reachable %s emits a run-journal event via %s", n.Name, key),
						Remedy: "journal emission is coordinator-only: record per-worker data locally and " +
							"reduce it at the coordinator",
					})
				}
				if matchAnyPattern(cfg.WarmFuncs, key) {
					sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr)
					if !ok || !g.Reachable(n) {
						return true
					}
					switch pv := e.provOf(n.Pkg, sel.X, 10); pv.kind {
					case provWindow:
					case provOther:
						findings = append(findings, Finding{
							Pos:   n.Pkg.Fset.Position(s.Pos()),
							Check: CheckShardIsolation,
							Msg: fmt.Sprintf("worker-reachable %s warms a parent cost cache via %s (receiver is not a window view)",
								n.Name, key),
							Remedy: "workers warm only WindowView-derived caches; parent warming belongs to the coordinator",
						})
					case provParam:
						ob := obligation{pv.owner, pv.obj, escalates(g, n, pv.owner)}
						if !seen[ob] {
							seen[ob] = true
							worklist = append(worklist, ob)
						}
					}
				}
			case *ast.AssignStmt:
				if g.Reachable(n) {
					for _, l := range s.Lhs {
						findings = e.coordWrite(findings, n, l)
					}
				}
			case *ast.IncDecStmt:
				if g.Reachable(n) {
					findings = e.coordWrite(findings, n, s.X)
				}
			}
			return true
		})
	}

	// Obligation fixpoint: a parameter that ends up warmed in worker
	// context must be window-derived at every contributing call site.
	for len(worklist) > 0 {
		ob := worklist[0]
		worklist = worklist[1:]
		for _, cs := range g.Sites[ob.owner] {
			if !ob.alwaysWorker && !g.Reachable(cs.From) {
				continue // coordinator-context call; warm is sanctioned there
			}
			arg := e.argFor(cs, ob)
			if arg == nil {
				continue
			}
			switch pv := e.provOf(cs.Pkg, arg, 10); pv.kind {
			case provWindow:
			case provOther:
				findings = append(findings, Finding{
					Pos:   cs.Pkg.Fset.Position(arg.Pos()),
					Check: CheckShardIsolation,
					Msg: fmt.Sprintf("parent cost cache passed from %s into worker-reachable %s, which warms it",
						cs.From.Name, ob.owner.Name),
					Remedy: "pass a WindowView-derived cache into worker-reachable code, or keep the warming call on the coordinator path",
				})
			case provParam:
				next := obligation{pv.owner, pv.obj, ob.alwaysWorker || escalates(g, cs.From, pv.owner)}
				if !seen[next] {
					seen[next] = true
					worklist = append(worklist, next)
				}
			}
		}
	}
	sortFindings(findings)
	return findings
}

// escalates decides whether an obligation raised at `at` (the node
// containing the warm or the chained call) on a parameter of `owner`
// must check every call site of owner, not just worker-reachable ones.
// That is the case only when `at` runs in worker context independently
// of how owner was called: it is itself a spawn callback, or owner never
// executes in worker context at all (so `at`'s reachability cannot have
// come through owner). When owner is itself worker-reachable, worker-ness
// follows owner's call sites and the reachability filter already applies
// — a synchronous inline closure (a fault-containment wrapper, say) must
// not escalate, or every coordinator-path caller would be flagged.
func escalates(g *Graph, at, owner *Node) bool {
	if at == owner {
		return false
	}
	return g.Root(at) || !g.Reachable(owner)
}

// argFor finds the call-site expression bound to an obligation's
// parameter: the matching positional argument, or the method receiver.
func (e *shardEngine) argFor(cs CallSite, ob obligation) ast.Expr {
	sig := ob.owner.Sig
	if sig == nil {
		return nil
	}
	if sig.Recv() != nil && ob.param == sig.Recv() {
		if sel, ok := ast.Unparen(cs.Call.Fun).(*ast.SelectorExpr); ok {
			return sel.X
		}
		return nil
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == ob.param {
			if i < len(cs.Call.Args) {
				return cs.Call.Args[i]
			}
			return nil
		}
	}
	return nil
}

// coordWrite reports a direct assignment to a coordinator-owned field.
func (e *shardEngine) coordWrite(findings []Finding, n *Node, lhs ast.Expr) []Finding {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return findings
	}
	s, ok := n.Pkg.Info.Selections[sel]
	if !ok {
		return findings
	}
	f, ok := s.Obj().(*types.Var)
	if !ok || !f.IsField() {
		return findings
	}
	key := fieldKey(s.Recv(), f)
	if !matchAnyPattern(e.cfg.CoordFields, key) {
		return findings
	}
	return append(findings, Finding{
		Pos:   n.Pkg.Fset.Position(sel.Pos()),
		Check: CheckShardIsolation,
		Msg:   fmt.Sprintf("worker-reachable %s assigns coordinator-owned field %s", n.Name, key),
		Remedy: "accumulate into worker-local state (or a disjoint indexed slot) and reduce at the " +
			"coordinator after the join",
	})
}

// collectDefs records single-assignment rhs expressions per variable for
// provenance tracing.
func (e *shardEngine) collectDefs(n *Node) {
	record := func(lhs, rhs []ast.Expr) {
		if len(lhs) != len(rhs) {
			return
		}
		for i, l := range lhs {
			id, ok := ast.Unparen(l).(*ast.Ident)
			if !ok {
				continue
			}
			obj := n.Pkg.Info.Defs[id]
			if obj == nil {
				obj = n.Pkg.Info.Uses[id]
			}
			if v, ok := obj.(*types.Var); ok {
				e.defs[v] = append(e.defs[v], provSrc{n.Pkg, rhs[i]})
			}
		}
	}
	n.WalkBody(func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.AssignStmt:
			record(s.Lhs, s.Rhs)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(s.Names))
			for i, id := range s.Names {
				lhs[i] = id
			}
			record(lhs, s.Values)
		}
		return true
	})
}

// provOf traces an expression to its cache provenance.
func (e *shardEngine) provOf(p *Pkg, expr ast.Expr, depth int) prov {
	if depth <= 0 {
		return prov{kind: provOther}
	}
	switch x := ast.Unparen(expr).(type) {
	case *ast.UnaryExpr:
		return e.provOf(p, x.X, depth-1)
	case *ast.StarExpr:
		return e.provOf(p, x.X, depth-1)
	case *ast.CallExpr:
		if callee := calleeOf(p, x); callee != nil {
			if matchAnyPattern(e.cfg.WindowFuncs, funcKey(callee)) {
				return prov{kind: provWindow}
			}
		}
		return prov{kind: provOther}
	case *ast.Ident:
		obj := p.Info.Uses[x]
		if obj == nil {
			obj = p.Info.Defs[x]
		}
		if obj == nil {
			return prov{kind: provOther}
		}
		if owner := e.pown[obj]; owner != nil {
			return prov{kind: provParam, owner: owner, obj: obj}
		}
		srcs := e.defs[obj]
		if len(srcs) == 0 {
			return prov{kind: provOther}
		}
		// Join over every assignment, worst wins: any unknown source
		// poisons the variable; otherwise a parameter source dominates a
		// window one.
		out := prov{kind: provWindow}
		for _, s := range srcs {
			pv := e.provOf(s.pkg, s.rhs, depth-1)
			switch pv.kind {
			case provOther:
				return pv
			case provParam:
				out = pv
			}
		}
		return out
	}
	return prov{kind: provOther}
}
