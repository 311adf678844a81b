package core

import (
	"runtime"
	"testing"

	"fastgr/internal/design"
)

// Allocation ceilings of one FastGRH run of 18test5 @ 0.02, per net: the
// measured 112 allocs and 9.69 KB (10.07 KB under -race) plus ~15%
// headroom. Before routes kept sealed edge lists the same run cost 464
// allocs and 61 KB a net, nearly all of the difference in per-net maps
// rebuilt by every scan; before the pattern DP kept its tables, flows and
// weights in a reused Solver it cost 358 allocs and 29.1 KB; before the
// edge list was the only geometry a route held (no segment and via-stack
// slices beside it) it cost 123 allocs and 10.96 KB; before the maze
// search state shrank to 12 bytes a node it cost 112 allocs and 9.97 KB.
const (
	allocsPerNetCeiling = 129
	bytesPerNetCeiling  = 11_600
)

// TestRouteAllocBudget is the allocation row of the performance ledger as a
// deterministic test: with one exec worker the allocation count of a run is
// a property of the code, not of the host, so a per-net map creeping back
// into a scan fails here before any benchmark runs.
func TestRouteAllocBudget(t *testing.T) {
	d := design.MustGenerate("18test5", 0.02)
	opt := DefaultOptions(FastGRH)
	opt.ExecWorkers = 1
	opt.T1, opt.T2 = 14, 71 // the paper's 100/500 scaled by sqrt(0.02)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Route(d, opt); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	nets := uint64(len(d.Nets))
	allocs := (after.Mallocs - before.Mallocs) / nets
	bytes := (after.TotalAlloc - before.TotalAlloc) / nets
	t.Logf("%d nets: %d allocs/net, %d bytes/net", nets, allocs, bytes)
	if allocs > allocsPerNetCeiling {
		t.Errorf("%d allocs/net exceeds the ceiling of %d", allocs, allocsPerNetCeiling)
	}
	if bytes > bytesPerNetCeiling {
		t.Errorf("%d bytes/net exceeds the ceiling of %d", bytes, bytesPerNetCeiling)
	}
}
