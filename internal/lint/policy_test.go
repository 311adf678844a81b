package lint

import (
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"fastgr/internal/lint/flow"
)

// TestDefaultPolicyAnchorsResolve pins the policy table to the tree it
// governs: every package pattern matches at least one real package,
// every flow function anchor names a function that exists in the call
// graph, and every field pattern resolves to a real struct type (and
// field, when not wildcarded). A rename that silently turns a policy
// entry into a no-op fails here instead of silently disabling a check.
// The cmd/... and examples/... entries double as the subtree-matching
// exercise.
func TestDefaultPolicyAnchorsResolve(t *testing.T) {
	moduleDir, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.PackageDirs([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}

	pol := DefaultPolicy()
	cfg := pol.Flow

	countMatches := func(pattern string) int {
		n := 0
		for _, p := range pkgs {
			if matchPath(pattern, p.Path) {
				n++
			}
		}
		return n
	}

	// Every package-pattern entry must match at least one real package.
	pkgLists := []struct {
		name     string
		patterns []string
	}{
		{"DetwallExempt", pol.DetwallExempt},
		{"GoroutineAllowed", pol.GoroutineAllowed},
		{"NilsafePackages", pol.NilsafePackages},
		{"RecoverAllowed", pol.RecoverAllowed},
		{"Flow.SinkPkgs", cfg.SinkPkgs},
		{"Flow.WriteAllowedPkgs", cfg.WriteAllowedPkgs},
	}
	sawSubtree := false
	for _, list := range pkgLists {
		for _, pat := range list.patterns {
			n := countMatches(pat)
			if n == 0 {
				t.Errorf("%s entry %q matches no package in the tree", list.name, pat)
			}
			if strings.HasSuffix(pat, "/...") {
				sawSubtree = true
				if n < 2 {
					t.Errorf("subtree entry %q matches only %d package(s); expected a real subtree", pat, n)
				}
			}
		}
	}
	if !sawSubtree {
		t.Error("no /... subtree pattern in the default policy; subtree matching is unexercised")
	}

	// Every function anchor must name a function present in the call
	// graph (the defaults are exact keys, no wildcards).
	fpkgs := make([]*flow.Pkg, len(pkgs))
	for i, p := range pkgs {
		fpkgs[i] = &flow.Pkg{Path: p.Path, Fset: p.Fset, Files: p.Files, Info: p.Info, Types: p.Types}
	}
	g := flow.Build(fpkgs, cfg)
	names := map[string]bool{}
	for _, n := range g.Nodes {
		names[n.Name] = true
	}
	funcLists := []struct {
		name     string
		patterns []string
	}{
		{"Flow.SpawnFuncs", cfg.SpawnFuncs},
		{"Flow.WarmFuncs", cfg.WarmFuncs},
		{"Flow.WindowFuncs", cfg.WindowFuncs},
		{"Flow.JournalFuncs", cfg.JournalFuncs},
	}
	for _, list := range funcLists {
		for _, pat := range list.patterns {
			if !names[pat] {
				t.Errorf("%s entry %q names no function in the call graph", list.name, pat)
			}
		}
	}

	// Every field pattern must resolve to a real struct type; exact
	// field names must exist on it.
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	for _, pat := range append(append([]string{}, cfg.SanctionedFields...), cfg.CoordFields...) {
		slash := strings.LastIndex(pat, "/")
		parts := strings.Split(pat[slash+1:], ".")
		if len(parts) != 3 {
			t.Errorf("field pattern %q is not pkgpath.Type.Field", pat)
			continue
		}
		pkgPath := pat[:slash+1] + parts[0]
		typeName, fieldName := parts[1], parts[2]
		p := byPath[pkgPath]
		if p == nil || p.Types == nil {
			t.Errorf("field pattern %q names unknown package %q", pat, pkgPath)
			continue
		}
		obj := p.Types.Scope().Lookup(typeName)
		if obj == nil {
			t.Errorf("field pattern %q names unknown type %s.%s", pat, pkgPath, typeName)
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			t.Errorf("field pattern %q: %s.%s is not a struct", pat, pkgPath, typeName)
			continue
		}
		if fieldName == "*" {
			continue
		}
		found := false
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == fieldName {
				found = true
			}
		}
		if !found {
			t.Errorf("field pattern %q: struct %s.%s has no field %s", pat, pkgPath, typeName, fieldName)
		}
	}
}
