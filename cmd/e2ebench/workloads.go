package main

import (
	"fmt"
	"math"
	"math/rand"

	"fastgr/internal/core"
	"fastgr/internal/design"
)

// workload is one fixed set of inputs. Each owns a pool of design
// instances of identical size: design.Generate derives its RNG from
// (name, scale), so scale + k·1e-6 is a different instance on the same
// grid with (within one or two) the same net count.
type workload struct {
	Name string
	// Why is the one line BENCHMARK.json carries.
	Why string

	Design  string
	Scale   float64
	Variant core.Variant
	Shards  int
	// Daemon routes through an in-process fastgrd instead of core.Route.
	Daemon bool
}

var workloads = []workload{
	{
		Name:    "maze_5l",
		Why:     "Congested 5-layer design: rip-up maze routing is ~95% of wall, so maze, taskflow, sched.BuildGraph and cost-cache work show here and pattern-stage changes must not.",
		Design:  "18test5m",
		Scale:   0.05,
		Variant: core.FastGRL,
	},
	{
		Name:    "pattern_9l",
		Why:     "Uncongested 9-layer design, hybrid kernel with selection: pattern stage ~55% of wall, the rest is cache warms and scans; maze-kernel changes must show little here.",
		Design:  "18test5",
		Scale:   0.2,
		Variant: core.FastGRH,
	},
	{
		Name:    "sharded_19m",
		Why:     "Same layers through the sharded pipeline (Shards=2): windowed cost caches, tree splitting, stitching and boundary reroutes; a monolithic-only gain that taxes windows shows only here.",
		Design:  "19test9m",
		Scale:   0.005,
		Variant: core.FastGRH,
		Shards:  2,
	},
	{
		Name:   "daemon_mix",
		Why:    "fastgrd path (admission, journal republish, guide artifact, HTTP) on ~0.1 s jobs cycling cugr/fastgrl/fastgrh, closed loop with 2 outstanding; the only row on the CUGR path.",
		Design: "18test5m",
		Scale:  0.003,
		Daemon: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizing is everything that scales a run. The committed sizes are
// fullSizing; the package test swaps in smokeSizing so all four workloads
// finish in seconds.
type sizing struct {
	// MaxNets, when positive, shrinks every workload's design scale until
	// the design holds about this many nets.
	MaxNets int
	// Pool is the number of design instances per workload; every round
	// routes each instance once.
	Pool int
	// MaxRounds, when positive, caps the timed rounds of a run.
	MaxRounds int
	// Set-up is repeated for the setup_s median until SetupSeconds are
	// spent, and at least SetupReps times.
	SetupReps    int
	SetupSeconds float64
	// AtomicioReps is the sample count of the atomicio write timings.
	AtomicioReps int
}

var fullSizing = sizing{Pool: 5, SetupReps: 9, SetupSeconds: 3, AtomicioReps: 50}

var smokeSizing = sizing{MaxNets: 216, Pool: 2, MaxRounds: 1, SetupReps: 2, AtomicioReps: 5}

// instanceScale is the scale of pool member k. design.Generate keys its
// RNG on the scale to six decimals, so members sit 1e-6 apart.
func (w workload) instanceScale(sz sizing, k int) float64 {
	base := w.Scale
	if spec, err := design.SpecByName(w.Design); err == nil && sz.MaxNets > 0 {
		if capped := math.Round(1e6*float64(sz.MaxNets)/float64(spec.Nets)) / 1e6; capped < base {
			base = capped
		}
	}
	return base + float64(k)*1e-6
}

// options is the configuration of one op, resolved as the fastgr CLI
// resolves it: library defaults, the paper's T1/T2 scaled with the
// design. ExecWorkers is pinned so results compare across hosts.
func (w workload) options(scale float64) core.Options {
	opt := core.DefaultOptions(w.Variant)
	opt.ExecWorkers = execWorkers
	opt.Shards = w.Shards
	opt.T1 = scaleThreshold(100, scale)
	opt.T2 = scaleThreshold(500, scale)
	return opt
}

// scaleThreshold mirrors cmd/fastgr: the paper's full-size selection
// thresholds shrink with the square root of the design scale.
func scaleThreshold(full int, scale float64) int {
	v := int(float64(full)*math.Sqrt(scale) + 0.5)
	if v < 2 {
		v = 2
	}
	return v
}

// instance is one generated pool member.
type instance struct {
	Scale float64
	D     *design.Design
}

func (w workload) generate(sz sizing, k int) (instance, error) {
	s := w.instanceScale(sz, k)
	d, err := design.Generate(w.Design, s)
	if err != nil {
		return instance{}, fmt.Errorf("generate %s@%v: %w", w.Design, s, err)
	}
	return instance{Scale: s, D: d}, nil
}

// roundOrder draws the order in which one round visits the pool (or one
// daemon block its job kinds). The seed
// never changes what is routed — every round covers every instance once,
// so the work of a run is the same for every seed — only the sequence,
// and with it the heap and cache state each op starts from.
func roundOrder(rng *rand.Rand, n int) []int { return rng.Perm(n) }
