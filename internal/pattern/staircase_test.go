package pattern

import (
	"math"
	"math/rand"
	"testing"

	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/stt"
)

// flowCounter evaluates on the CPU and records each program's flow count.
type flowCounter struct {
	CPUEvaluator
	flows []int
}

func (f *flowCounter) EvalProgram(p *EdgeProgram, val []float64, choices []Choice) {
	f.flows = append(f.flows, p.NumFlows())
	f.CPUEvaluator.EvalProgram(p, val, choices)
}

func congest(t *testing.T, g *grid.Graph, seed int64, n, amount int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		l := 2 + rng.Intn(g.L-1)
		x, y := rng.Intn(g.W-1), rng.Intn(g.H-1)
		if g.HasWireEdge(l, x, y) {
			if g.Dir(l) == grid.Horizontal {
				g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x + 1, Y: y}, rng.Intn(amount))
			} else {
				g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x, Y: y + 1}, rng.Intn(amount))
			}
		}
	}
}

func TestStaircaseNeverWorseThanHybrid(t *testing.T) {
	// The staircase candidate set contains every hybrid candidate, so its
	// optimum can only be equal or better — the dominance that makes it a
	// faithful "more bend points" extension.
	g := testGrid(t, 4)
	congest(t, g, 41, 200, 15)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 25; i++ {
		s := geom.Point{X: rng.Intn(20), Y: rng.Intn(20)}
		d := geom.Point{X: rng.Intn(20), Y: rng.Intn(20)}
		if s == d {
			continue
		}
		net := netOf(s, d)
		h := solveAndCheck(t, g, net, Config{Mode: Hybrid})
		st := solveAndCheck(t, g, net, Config{Mode: Staircase})
		if st.Cost > h.Cost+1e-9 {
			t.Fatalf("net %v->%v: staircase %v worse than hybrid %v", s, d, st.Cost, h.Cost)
		}
	}
}

func TestStaircaseBeatsHybridWhenOnlyStairFits(t *testing.T) {
	// Block every row a Z pattern's long horizontal runs could use except a
	// split corridor that requires two horizontal rows — only a 3-bend path
	// uses row A for the left half and row B for the right half.
	g := testGrid(t, 4)
	s := geom.Point{X: 2, Y: 2}
	d := geom.Point{X: 18, Y: 10}
	// A VHVH staircase runs V on column sx, H on a free row yj, V on a free
	// column xi, H on the target row ty. Leave free: row 5 for x in [2,13)
	// and the target row 10 for x in [13,18) — reachable only by bending at
	// (13, 5), which the interior sampling (stride 2 from lo+1) covers.
	// Every 2-bend (hybrid) path needs a single fully-free span and must pay
	// congestion somewhere.
	for _, l := range []int{1, 3} {
		for y := 2; y <= 10; y++ {
			for x := 2; x < 18; x++ {
				if (y == 5 && x < 13) || (y == 10 && x >= 13) {
					continue
				}
				g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x + 1, Y: y}, 25)
			}
		}
	}
	net := netOf(s, d)
	h := solveAndCheck(t, g, net, Config{Mode: Hybrid})
	st := solveAndCheck(t, g, net, Config{Mode: Staircase})
	if st.Cost >= h.Cost-1e-6 {
		t.Fatalf("staircase (%v) should strictly beat hybrid (%v) on the split corridor",
			st.Cost, h.Cost)
	}
}

func TestStaircaseBruteForceSmallBox(t *testing.T) {
	// On a box small enough that sampling keeps every interior pair, the
	// staircase DP must equal exhaustive enumeration over all 3-bend (and
	// simpler) paths.
	g := testGrid(t, 4)
	congest(t, g, 43, 120, 14)
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 12; i++ {
		s := geom.Point{X: 2 + rng.Intn(6), Y: 2 + rng.Intn(6)}
		d := geom.Point{X: s.X + 2 + rng.Intn(5), Y: s.Y + 2 + rng.Intn(5)}
		res := solveAndCheck(t, g, netOf(s, d), Config{Mode: Staircase})
		want := bruteForceStaircase(g, s, d)
		if math.Abs(res.Cost-want) > 1e-6 {
			t.Fatalf("net %v->%v: staircase DP %v, brute force %v", s, d, res.Cost, want)
		}
	}
}

// bruteForceStaircase enumerates all HVHV and VHVH 3-bend paths (which
// subsume the hybrid set at their degenerate coordinates) for pins on
// layer 1.
func bruteForceStaircase(g *grid.Graph, s, t geom.Point) float64 {
	best := math.Inf(1)
	L := g.L
	try := func(pts []geom.Point, layers []int) {
		c := g.ViaStackCost(s.X, s.Y, 1, layers[0])
		prev := s
		for i, bend := range pts {
			if prev != bend && segOrient(prev, bend) != g.Dir(layers[i]) {
				return
			}
			c += g.SegCost(layers[i], prev, bend)
			if i+1 < len(layers) {
				c += g.ViaStackCost(bend.X, bend.Y, layers[i], layers[i+1])
			}
			prev = bend
		}
		c += g.ViaStackCost(t.X, t.Y, layers[len(layers)-1], 1)
		if c < best {
			best = c
		}
	}
	lox, hix := geom.Min(s.X, t.X), geom.Max(s.X, t.X)
	loy, hiy := geom.Min(s.Y, t.Y), geom.Max(s.Y, t.Y)
	for l1 := 1; l1 <= L; l1++ {
		for l2 := 1; l2 <= L; l2++ {
			for l3 := 1; l3 <= L; l3++ {
				for l4 := 1; l4 <= L; l4++ {
					layers := []int{l1, l2, l3, l4}
					for xi := lox; xi <= hix; xi++ {
						for yj := loy; yj <= hiy; yj++ {
							// HVHV with bends at (xi,sy), (xi,yj), (tx,yj).
							try([]geom.Point{{X: xi, Y: s.Y}, {X: xi, Y: yj}, {X: t.X, Y: yj}, t}, layers)
							// VHVH with bends at (sx,yj), (xi,yj), (xi,ty).
							try([]geom.Point{{X: s.X, Y: yj}, {X: xi, Y: yj}, {X: xi, Y: t.Y}, t}, layers)
						}
					}
				}
			}
		}
	}
	return best
}

func TestStaircaseSelection(t *testing.T) {
	g := testGrid(t, 4)
	cfg := Config{Mode: Staircase, Selection: true, T1: 4, T2: 12}
	res := solveAndCheck(t, g, netOf(geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 1}), cfg)
	if res.HybridEdges != 0 {
		t.Fatal("small net used the staircase kernel despite selection")
	}
	res = solveAndCheck(t, g, netOf(geom.Point{X: 0, Y: 0}, geom.Point{X: 5, Y: 5}), cfg)
	if res.HybridEdges != 1 {
		t.Fatal("medium net did not use the staircase kernel")
	}
}

func TestStaircaseCandidateCap(t *testing.T) {
	// A huge bounding box must stay within the sampling budget: hybrid set
	// (M+N) plus at most ~4x MaxStairCands staircase flows (two orientations
	// per sampled pair, stride rounding).
	g := testGrid(t, 4)
	net := netOf(geom.Point{X: 0, Y: 0}, geom.Point{X: 23, Y: 23})
	fc := &flowCounter{}
	Solve(g, stt.Build(net), Config{Mode: Staircase}, fc)
	if len(fc.flows) != 1 {
		t.Fatalf("edges = %d", len(fc.flows))
	}
	hybridSet := 24 + 24 // M + N
	if fc.flows[0] > hybridSet+4*MaxStairCands {
		t.Fatalf("candidate cap breached: %d flows", fc.flows[0])
	}
	if fc.flows[0] <= hybridSet {
		t.Fatal("no staircase candidates were added")
	}
}

func TestStaircaseModeString(t *testing.T) {
	if Staircase.String() != "staircase" {
		t.Fatal("Staircase.String wrong")
	}
}
