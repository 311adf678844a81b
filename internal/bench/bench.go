// Package bench regenerates every table and figure of the paper's
// evaluation (Section IV) on the synthetic benchmark suite: Fig. 3 (runtime
// breakdown), Table III (benchmarks), Tables IV/V (sorting schemes), Fig. 12
// (selection threshold sweep), Table VI (selection ablation), Table VII
// (overall results), Table VIII (runtime breakdown per stage), Table IX
// (solution quality) and Table X (detailed-routing quality).
//
// Experiments share routing runs through a memoizing Suite, and every
// reported number is deterministic (modeled stage times; see DESIGN.md), so
// the tables are reproducible run to run.
package bench

import (
	"fmt"
	"math"

	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/sched"
)

// Config scopes an experiment run.
type Config struct {
	// Scale shrinks every benchmark (1.0 = full contest size). Net counts
	// scale linearly, grid sides and HPWL-based thresholds by sqrt(Scale).
	Scale float64
	// Designs restricts the benchmark list (default: all twelve).
	Designs []string
}

// DefaultConfig runs all twelve designs at 1% scale, which keeps the full
// experiment suite within minutes on a laptop-class machine while preserving
// the congestion regimes (see DESIGN.md).
func DefaultConfig() Config {
	return Config{Scale: 0.01, Designs: design.AllNames()}
}

// runKey identifies one memoized routing run.
type runKey struct {
	design    string
	variant   core.Variant
	selOff    bool
	t2        int // 0 = config default
	rrrScheme sched.Scheme
	hasScheme bool
	rrrIters  int // -1 = default
}

// Suite memoizes routing runs across experiments.
type Suite struct {
	Cfg     Config
	designs map[string]*design.Design
	runs    map[runKey]*core.Result
	// Verbose, when set, prints one line per routing run as it happens.
	Verbose func(format string, args ...interface{})
}

// NewSuite builds an experiment suite.
func NewSuite(cfg Config) *Suite {
	if len(cfg.Designs) == 0 {
		cfg.Designs = design.AllNames()
	}
	return &Suite{
		Cfg:     cfg,
		designs: make(map[string]*design.Design),
		runs:    make(map[runKey]*core.Result),
	}
}

// Design returns the (memoized) generated benchmark.
func (s *Suite) Design(name string) *design.Design {
	if d, ok := s.designs[name]; ok {
		return d
	}
	d := design.MustGenerate(name, s.Cfg.Scale)
	s.designs[name] = d
	return d
}

// options builds the core options for a run key.
func (s *Suite) options(k runKey) core.Options {
	opt := core.DefaultOptions(k.variant)
	opt.T1 = core.ScaledThreshold(100, s.Cfg.Scale)
	opt.T2 = core.ScaledThreshold(500, s.Cfg.Scale)
	if k.t2 != 0 {
		opt.T2 = k.t2
	}
	opt.SelectionOff = k.selOff
	if k.hasScheme {
		sc := k.rrrScheme
		opt.RRRSchemeOverride = &sc
	}
	if k.rrrIters >= 0 {
		opt.RRRIters = k.rrrIters
	}
	return opt
}

func (s *Suite) run(k runKey) *core.Result {
	if res, ok := s.runs[k]; ok {
		return res
	}
	if s.Verbose != nil {
		s.Verbose("routing %s with %v (selOff=%v t2=%d)", k.design, k.variant, k.selOff, k.t2)
	}
	res, err := core.Route(s.Design(k.design), s.options(k))
	if err != nil {
		panic(fmt.Sprintf("bench: routing %s/%v failed: %v", k.design, k.variant, err))
	}
	s.runs[k] = res
	return res
}

// Run routes a design with a standard variant configuration (memoized).
func (s *Suite) Run(name string, v core.Variant) *core.Result {
	return s.run(runKey{design: name, variant: v, rrrIters: -1})
}

// RunSelectionOff routes with the hybrid kernel applied to every net.
func (s *Suite) RunSelectionOff(name string) *core.Result {
	return s.run(runKey{design: name, variant: core.FastGRH, selOff: true, rrrIters: -1})
}

// RunWithT2 routes FastGRH with an explicit T2 threshold (Fig. 12 sweep).
func (s *Suite) RunWithT2(name string, t2 int) *core.Result {
	return s.run(runKey{design: name, variant: core.FastGRH, t2: t2, rrrIters: -1})
}

// RunWithRRRScheme routes FastGRL with a sorting-scheme override in the
// rip-up-and-reroute iterations only (Table V).
func (s *Suite) RunWithRRRScheme(name string, scheme sched.Scheme) *core.Result {
	return s.run(runKey{design: name, variant: core.FastGRL, rrrScheme: scheme, hasScheme: true, rrrIters: -1})
}

// geoMean returns the geometric mean of positive ratios, the aggregation the
// paper uses for speedup averages.
func geoMean(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range ratios {
		sum += math.Log(r)
	}
	return math.Exp(sum / float64(len(ratios)))
}

// mean returns the arithmetic mean, skipping NaN entries — the undefined
// sentinel metrics.ImprovementPct returns for zero-base comparisons, which
// must not poison a table's average (0 when nothing is defined).
func mean(vals []float64) float64 {
	s, n := 0.0, 0
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		s += v
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
