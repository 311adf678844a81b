package core

import (
	"testing"

	"fastgr/internal/design"
)

// TestSoakAcrossDesigns runs the full quality-oriented pipeline over several
// benchmark families at a tiny scale and checks every cross-module
// invariant at once: connectivity of every net, demand bookkeeping, score
// consistency, and monotone shrinking of the rip-up sets.
func TestSoakAcrossDesigns(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	for _, name := range []string{"18test5", "18test8m", "19test7m", "19test9"} {
		name := name
		t.Run(name, func(t *testing.T) {
			d := design.MustGenerate(name, 0.002)
			opt := DefaultOptions(FastGRH)
			opt.T1, opt.T2 = 4, 25
			res, err := Route(d, opt)
			if err != nil {
				t.Fatal(err)
			}
			rep := res.Report

			for _, n := range d.Nets {
				r := res.Routes[n.ID]
				if r == nil {
					t.Fatalf("net %s unrouted", n.Name)
				}
				if err := r.Validate(res.Grid, netTerminals(n)); err != nil {
					t.Fatalf("net %s: %v", n.Name, err)
				}
			}
			if rep.Score != rep.Quality.Score() {
				t.Fatal("score mismatch")
			}
			// Overflow from the grid must match the reported shorts.
			wire, via := res.Grid.Overflow()
			if rep.Quality.Shorts != wire+via {
				t.Fatalf("shorts %d != grid overflow %d", rep.Quality.Shorts, wire+via)
			}
			// Rip everything: demand returns to zero.
			for _, n := range d.Nets {
				res.Routes[n.ID].Uncommit(res.Grid)
			}
			w2, v2 := res.Grid.TotalDemand()
			if w2 != 0 || v2 != 0 {
				t.Fatalf("unbalanced demand after full rip-up: %d/%d", w2, v2)
			}
		})
	}
}
