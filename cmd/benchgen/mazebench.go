package main

import (
	"fmt"
	"math/rand"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/maze"
	"fastgr/internal/route"
	"fastgr/internal/stt"
)

// maxNsPerExpansionRatio is the maze kernel's perf gate: on the same warm
// cost field, one A* expansion may cost at most this many Dijkstra
// expansions. A* settles a twelfth of the nodes, so its searches are short
// and its frontier small; what it pays per settled node — the heuristic, a
// queue that is reset per pass — is the kernel's constant factor, and a
// ratio taken inside one run does not depend on the host. A* must also
// settle strictly fewer nodes. tier1.sh runs `benchgen -maze` and fails the
// build beyond this line.
const maxNsPerExpansionRatio = 1.5

type mazeEntry struct {
	NsPerOp int64 `json:"ns_per_op"`
	// Expansions/Pushes are per round (50 nets), identical on every round
	// of a variant: the searches never commit demand, so the grid — and
	// therefore the geometry — is frozen during measurement.
	Expansions         int64   `json:"expansions"`
	Pushes             int64   `json:"pushes"`
	NsPerExpansion     float64 `json:"ns_per_expansion"`
	PushesPerExpansion float64 `json:"pushes_per_expansion"`
	// BoundPasses/BoundCells are the congestion-aware A* bound's passes
	// and settled plane cells per round (zero where it does not engage).
	BoundPasses int64 `json:"bound_passes"`
	BoundCells  int64 `json:"bound_cells"`
}

type mazeReport struct {
	Design string  `json:"design"`
	Scale  float64 `json:"scale"`
	Nets   int     `json:"nets"`
	// Variants: algorithm x cost-field state. "cold" searches each net on
	// a window view built and warmed for it alone, "warm" on one full
	// field warmed once; "dijkstra/cold" is the seed configuration and
	// "astar/warm" what the router ships. "hot" is a warm field loaded
	// until the congestion-aware bound engages: report-only, no gate.
	Variants map[string]mazeEntry `json:"variants"`

	SpeedupAStarWarm       float64 `json:"speedup_astar_warm_vs_dijkstra_cold"`
	ExpansionRatio         float64 `json:"expansion_ratio_astar_vs_dijkstra"`
	NsPerExpansionRatio    float64 `json:"ns_per_expansion_ratio_astar_vs_dijkstra_warm"`
	MaxNsPerExpansionRatio float64 `json:"max_ns_per_expansion_ratio"`

	// The congested row, A* over Dijkstra on the hot field: settled 3-D
	// nodes, and wall per round with the bound's floods included.
	HotExpansionRatio float64 `json:"hot_expansion_ratio_astar_vs_dijkstra"`
	HotNsPerOpRatio   float64 `json:"hot_ns_per_op_ratio_astar_vs_dijkstra"`

	// Meta fingerprints the measurement host for -regress (stamp.go).
	Meta BenchMeta `json:"meta"`
}

// runMaze measures the maze kernel over {dijkstra,astar} x {cold (a
// per-net window view, warmed before its search), warm (one full field),
// hot (a warm field loaded until the congestion-aware bound engages)} on
// the hostpar maze workload (50 nets of 18test5m, inflated windows, seeded
// congestion) and writes BENCH_maze.json. It returns an error — failing
// the build — when an A* expansion on the warm field costs more than the
// gate allows against a Dijkstra one, or A* settles no fewer nodes; the
// hot row is recorded, not gated.
func runMaze(out string) error {
	const reps, iters = 6, 2
	d := design.MustGenerate("18test5m", hostparScale)

	mkGraph := func(load int) *grid.Graph {
		g := grid.NewFromDesign(d)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < load; i++ {
			l := 2 + rng.Intn(3)
			x, y := rng.Intn(g.W-1), rng.Intn(g.H-1)
			if g.HasWireEdge(l, x, y) {
				if g.Dir(l) == grid.Horizontal {
					g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x + 1, Y: y}, rng.Intn(10))
				} else {
					g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x, Y: y + 1}, rng.Intn(10))
				}
			}
		}
		return g
	}
	// The cold variants warm views of g, which leave g's own cache cold.
	g := mkGraph(400)
	gWarm := mkGraph(400)
	gWarm.WarmCostCache()
	gHot := mkGraph(8000)
	gHot.WarmCostCache()

	nets := d.Nets[:50]
	pins := make([][]geom.Point3, len(nets))
	wins := make([]geom.Rect, len(nets))
	for i, n := range nets {
		pins[i] = route.PinTerminals(stt.Build(n))
		wins[i] = n.BBox().Inflate(4).ClampTo(g.W, g.H)
	}

	type variant struct {
		key       string
		cold, hot bool
		alg       maze.Algorithm
	}
	variants := []variant{
		{"dijkstra/cold", true, false, maze.Dijkstra},
		{"dijkstra/warm", false, false, maze.Dijkstra},
		{"astar/cold", true, false, maze.AStar},
		{"astar/warm", false, false, maze.AStar},
		{"dijkstra/hot", false, true, maze.Dijkstra},
		{"astar/hot", false, true, maze.AStar},
	}

	round := func(v variant, s *maze.Search) (maze.Stats, error) {
		var total maze.Stats
		for j := range nets {
			sg := gWarm
			if v.cold {
				sg = g.WindowView(wins[j])
				sg.WarmCostCache()
			} else if v.hot {
				sg = gHot
			}
			_, st, err := s.RouteNet(sg, nets[j].ID, pins[j], wins[j])
			if err != nil {
				return total, err
			}
			total.Expansions += st.Expansions
			total.Pushes += st.Pushes
			total.BoundPasses += st.BoundPasses
			total.BoundCells += st.BoundCells
		}
		return total, nil
	}

	rep := mazeReport{
		Design:                 "18test5m",
		Scale:                  hostparScale,
		Nets:                   len(nets),
		Variants:               map[string]mazeEntry{},
		MaxNsPerExpansionRatio: maxNsPerExpansionRatio,
	}

	// One untimed round per variant collects the (round-invariant)
	// expansion counts; the timed rounds interleave all variants
	// round-robin so clock drift hits each one equally.
	searches := make([]*maze.Search, len(variants))
	fns := make([]func(), len(variants))
	var roundErr error
	for i, v := range variants {
		v := v
		searches[i] = maze.NewSearch()
		searches[i].SetAlgorithm(v.alg)
		st, err := round(v, searches[i])
		if err != nil {
			return fmt.Errorf("maze bench %s: %w", v.key, err)
		}
		rep.Variants[v.key] = mazeEntry{
			Expansions:         st.Expansions,
			Pushes:             st.Pushes,
			PushesPerExpansion: float64(st.Pushes) / float64(st.Expansions),
			BoundPasses:        st.BoundPasses,
			BoundCells:         st.BoundCells,
		}
		s := searches[i]
		fns[i] = func() {
			if _, err := round(v, s); err != nil && roundErr == nil {
				roundErr = err
			}
		}
	}
	ns := minNsPerOp(reps, iters, fns...)
	if roundErr != nil {
		return roundErr
	}
	for i, v := range variants {
		e := rep.Variants[v.key]
		e.NsPerOp = ns[i]
		e.NsPerExpansion = float64(ns[i]) / float64(e.Expansions)
		rep.Variants[v.key] = e
	}

	seed, base, ship := rep.Variants["dijkstra/cold"], rep.Variants["dijkstra/warm"], rep.Variants["astar/warm"]
	rep.SpeedupAStarWarm = float64(seed.NsPerOp) / float64(ship.NsPerOp)
	rep.ExpansionRatio = float64(ship.Expansions) / float64(seed.Expansions)
	rep.NsPerExpansionRatio = ship.NsPerExpansion / base.NsPerExpansion
	hotA, hotD := rep.Variants["astar/hot"], rep.Variants["dijkstra/hot"]
	rep.HotExpansionRatio = float64(hotA.Expansions) / float64(hotD.Expansions)
	rep.HotNsPerOpRatio = float64(hotA.NsPerOp) / float64(hotD.NsPerOp)

	rep.Meta = currentBenchMeta()
	var gate error
	switch {
	case rep.NsPerExpansionRatio > maxNsPerExpansionRatio:
		gate = fmt.Errorf("an astar expansion costs %.2fx a dijkstra expansion on the warm field (%.0f vs %.0f ns); the gate is %.1fx",
			rep.NsPerExpansionRatio, ship.NsPerExpansion, base.NsPerExpansion, maxNsPerExpansionRatio)
	case ship.Expansions >= seed.Expansions:
		gate = fmt.Errorf("astar settled %d nodes, not fewer than dijkstra's %d", ship.Expansions, seed.Expansions)
	}
	return writeRecord(out, "maze kernel benchmark record", rep, gate)
}
