package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"fastgr/internal/atomicio"
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
}

type mazeReport struct {
	Design string  `json:"design"`
	Scale  float64 `json:"scale"`
	Nets   int     `json:"nets"`
	// Variants: algorithm x cost-field state. "dijkstra/cold" is the seed
	// configuration; "astar/warm" is what the router ships.
	Variants map[string]mazeEntry `json:"variants"`

	SpeedupAStarWarm       float64 `json:"speedup_astar_warm_vs_dijkstra_cold"`
	ExpansionRatio         float64 `json:"expansion_ratio_astar_vs_dijkstra"`
	NsPerExpansionRatio    float64 `json:"ns_per_expansion_ratio_astar_vs_dijkstra_warm"`
	MaxNsPerExpansionRatio float64 `json:"max_ns_per_expansion_ratio"`

	// Meta fingerprints the measurement host for -regress (stamp.go).
	Meta BenchMeta `json:"meta"`
}

// runMaze measures the maze kernel over {dijkstra,astar} x {cold,warm
// cost cache} on the hostpar maze workload (50 nets of 18test5m, inflated
// windows, seeded congestion) and writes BENCH_maze.json. It returns an
// error — failing the build — when the A*+warm-cache variant does not
// clear the speedup gate against the seed Dijkstra-cold configuration.
func runMaze(out string) error {
	const reps, iters = 6, 2
	d := design.MustGenerate("18test5m", hostparScale)

	// Two graphs with identical congestion: variants must not share one
	// because warming is a persistent graph-state change.
	mkGraph := func() *grid.Graph {
		g := grid.NewFromDesign(d)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 400; i++ {
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
	gCold, gWarm := mkGraph(), mkGraph()
	gWarm.WarmCostCache()

	nets := d.Nets[:50]
	pins := make([][]geom.Point3, len(nets))
	wins := make([]geom.Rect, len(nets))
	for i, n := range nets {
		pins[i] = route.PinTerminals(stt.Build(n))
		wins[i] = n.BBox().Inflate(4).ClampTo(gCold.W, gCold.H)
	}

	type variant struct {
		key string
		g   *grid.Graph
		alg maze.Algorithm
	}
	variants := []variant{
		{"dijkstra/cold", gCold, maze.Dijkstra},
		{"dijkstra/warm", gWarm, maze.Dijkstra},
		{"astar/cold", gCold, maze.AStar},
		{"astar/warm", gWarm, maze.AStar},
	}

	round := func(v variant, s *maze.Search) (maze.Stats, error) {
		var total maze.Stats
		for j := range nets {
			_, st, err := s.RouteNet(v.g, nets[j].ID, pins[j], wins[j])
			if err != nil {
				return total, err
			}
			total.Expansions += st.Expansions
			total.Pushes += st.Pushes
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

	rep.Meta = currentBenchMeta()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		if _, err := os.Stdout.Write(data); err != nil {
			return err
		}
	} else {
		if err := atomicio.WriteFile(out, data); err != nil {
			return err
		}
		fmt.Printf("maze kernel benchmark record written to %s\n", out)
	}
	if rep.NsPerExpansionRatio > maxNsPerExpansionRatio {
		return fmt.Errorf("an astar expansion costs %.2fx a dijkstra expansion on the warm field (%.0f vs %.0f ns); the gate is %.1fx",
			rep.NsPerExpansionRatio, ship.NsPerExpansion, base.NsPerExpansion, maxNsPerExpansionRatio)
	}
	if ship.Expansions >= seed.Expansions {
		return fmt.Errorf("astar settled %d nodes, not fewer than dijkstra's %d", ship.Expansions, seed.Expansions)
	}
	return nil
}
