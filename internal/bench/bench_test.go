package bench

import (
	"bytes"
	"strings"
	"testing"

	"fastgr/internal/core"
	"fastgr/internal/dr"
	"fastgr/internal/sched"
)

// fastCfg keeps unit tests quick: two designs at a small scale.
func fastCfg() Config {
	return Config{Scale: 0.004, Designs: []string{"18test5", "18test5m"}}
}

// TestConfigThresholds pins the thresholds a suite routes with: the
// paper's T1 = 100 and T2 = 500 scaled through core.ScaledThreshold, which
// also scales Fig. 12's sweep.
func TestConfigThresholds(t *testing.T) {
	for _, c := range []struct {
		full  int
		scale float64
		want  int
	}{{100, 1, 100}, {500, 1, 500}, {100, 0.01, 10}, {500, 0.01, 50}, {1000, 0.01, 100}} {
		if got := core.ScaledThreshold(c.full, c.scale); got != c.want {
			t.Errorf("ScaledThreshold(%d, %v) = %d, want %d", c.full, c.scale, got, c.want)
		}
	}
	opt := NewSuite(Config{Scale: 0.01}).options(runKey{variant: core.FastGRH, rrrIters: -1})
	if opt.T1 != 10 || opt.T2 != 50 {
		t.Fatalf("1%% suite thresholds %d/%d, want 10/50", opt.T1, opt.T2)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Scale != 0.01 || len(cfg.Designs) != 12 {
		t.Fatalf("unexpected default config: %+v", cfg)
	}
}

func TestSuiteMemoizesRuns(t *testing.T) {
	s := NewSuite(fastCfg())
	a := s.Run("18test5m", core.FastGRL)
	b := s.Run("18test5m", core.FastGRL)
	if a != b {
		t.Fatal("identical runs not memoized")
	}
	if s.Design("18test5m") != s.Design("18test5m") {
		t.Fatal("designs not memoized")
	}
	// Different keys must not collide.
	c := s.Run("18test5m", core.FastGRH)
	if c == a {
		t.Fatal("different variants shared a run")
	}
	d := s.RunSelectionOff("18test5m")
	if d == c {
		t.Fatal("selection-off shared the selection-on run")
	}
	e := s.RunWithT2("18test5m", 999)
	if e == c {
		t.Fatal("custom T2 shared the default run")
	}
	f := s.RunWithRRRScheme("18test5m", sched.PinsDesc)
	if f == a {
		t.Fatal("scheme override shared the default run")
	}
}

func TestTableIII(t *testing.T) {
	s := NewSuite(fastCfg())
	rows := TableIII(s)
	if len(rows) != 6 {
		t.Fatalf("Table III rows = %d, want 6 base designs", len(rows))
	}
	var buf bytes.Buffer
	PrintTableIII(&buf, rows)
	if !strings.Contains(buf.String(), "18test5") {
		t.Fatal("printout missing design names")
	}
}

func TestFig3(t *testing.T) {
	s := NewSuite(Config{Scale: 0.004, Designs: []string{"19test9", "19test7", "19test9m"}})
	rows := Fig3(s)
	if len(rows) != 3 {
		t.Fatalf("Fig3 rows = %d", len(rows))
	}
	byName := map[string]Fig3Row{}
	for _, r := range rows {
		byName[r.Design] = r
		if r.PatternFrac < 0 || r.PatternFrac > 1 {
			t.Fatalf("fraction out of range: %+v", r)
		}
	}
	// The paper's shape: 19test9m is MAZE-dominated, 19test9 PATTERN-heavy.
	if byName["19test9m"].PatternFrac >= 0.5 {
		t.Fatalf("19test9m should be MAZE-dominated, pattern frac %.2f",
			byName["19test9m"].PatternFrac)
	}
	if byName["19test9"].PatternFrac <= byName["19test9m"].PatternFrac {
		t.Fatal("9-layer design should be more PATTERN-dominated than its m twin")
	}
	var buf bytes.Buffer
	PrintFig3(&buf, rows)
	if !strings.Contains(buf.String(), "19test9m") {
		t.Fatal("printout incomplete")
	}
}

func TestTableV(t *testing.T) {
	// Use the small designs for speed; the experiment logic is identical.
	s := NewSuite(Config{Scale: 0.003, Designs: []string{"18test10", "18test10m"}})
	rows := tableVOn(s, []string{"18test10m"})
	if len(rows) != len(sched.Schemes) {
		t.Fatalf("rows = %d, want %d", len(rows), len(sched.Schemes))
	}
	for _, r := range rows {
		if r.Total != r.Pattern+r.Maze {
			t.Fatalf("scheme %v: TOTAL mismatch", r.Scheme)
		}
		if r.Score != r.Quality.Score() {
			t.Fatalf("scheme %v: score mismatch", r.Scheme)
		}
	}
	// Schemes must actually change something (maze time or quality).
	allSame := true
	for _, r := range rows[1:] {
		if r.Maze != rows[0].Maze || r.Quality != rows[0].Quality {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("all sorting schemes produced identical results")
	}
	var buf bytes.Buffer
	PrintTableV(&buf, rows)
	if !strings.Contains(buf.String(), "hpwl-asc") {
		t.Fatal("printout missing schemes")
	}
}

func TestFig12(t *testing.T) {
	s := NewSuite(Config{Scale: 0.003, Designs: []string{"18test5m"}})
	res := Fig12(s)
	if len(res.Rows) != 10 {
		t.Fatalf("sweep points = %d, want 10", len(res.Rows))
	}
	for i, r := range res.Rows {
		if r.T2Full != (i+1)*100 {
			t.Fatalf("row %d T2Full = %d", i, r.T2Full)
		}
		if r.Pattern <= 0 || r.Score <= 0 {
			t.Fatalf("row %d empty: %+v", i, r)
		}
	}
	// Pattern runtime is non-decreasing in t2 (more hybrid candidates).
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Pattern < res.Rows[i-1].Pattern {
			t.Fatalf("pattern time decreased from t2=%d to t2=%d",
				res.Rows[i-1].T2Full, res.Rows[i].T2Full)
		}
	}
	if res.BaselinePattern <= 0 || res.BaselineScore <= 0 {
		t.Fatal("missing CUGR baselines")
	}
	var buf bytes.Buffer
	PrintFig12(&buf, res)
	if !strings.Contains(buf.String(), "baseline CUGR") {
		t.Fatal("printout missing baseline")
	}
}

func TestTableVI(t *testing.T) {
	s := NewSuite(fastCfg())
	sum := TableVI(s)
	if len(sum.Rows) != 2 {
		t.Fatalf("rows = %d", len(sum.Rows))
	}
	if sum.PatternSpeedup < 1 {
		t.Fatalf("selection should speed up the pattern stage, got %.3fx", sum.PatternSpeedup)
	}
	var buf bytes.Buffer
	PrintTableVI(&buf, sum)
	if !strings.Contains(buf.String(), "selection") {
		t.Fatal("printout incomplete")
	}
}

func TestTableVII(t *testing.T) {
	s := NewSuite(fastCfg())
	sum := TableVII(s)
	if len(sum.Rows) != 2 {
		t.Fatalf("rows = %d", len(sum.Rows))
	}
	if sum.GRLSpeedup <= 1 {
		t.Fatalf("FastGRL speedup %.3fx not above 1", sum.GRLSpeedup)
	}
	for _, r := range sum.Rows {
		if r.CUGRTotal <= 0 || r.GRLTotal <= 0 || r.GRHTotal <= 0 {
			t.Fatalf("empty totals: %+v", r)
		}
	}
	var buf bytes.Buffer
	PrintTableVII(&buf, sum)
	if !strings.Contains(buf.String(), "geo-mean speedup") {
		t.Fatal("printout incomplete")
	}
}

func TestTableVIII(t *testing.T) {
	s := NewSuite(fastCfg())
	sum := TableVIII(s)
	if sum.LKernelSpeedup <= 1 {
		t.Fatalf("L kernel speedup %.3fx not above 1", sum.LKernelSpeedup)
	}
	if sum.HKernelSpeedup > sum.LKernelSpeedup {
		t.Fatal("hybrid kernel should not be faster than the L kernel")
	}
	var buf bytes.Buffer
	PrintTableVIII(&buf, sum)
	if !strings.Contains(buf.String(), "L kernel") {
		t.Fatal("printout incomplete")
	}
}

func TestTableIX(t *testing.T) {
	s := NewSuite(fastCfg())
	sum := TableIX(s)
	if len(sum.Rows) != 2 {
		t.Fatalf("rows = %d", len(sum.Rows))
	}
	for _, r := range sum.Rows {
		if r.GRL.Wirelength == 0 || r.GRH.Wirelength == 0 {
			t.Fatalf("empty quality: %+v", r)
		}
	}
	var buf bytes.Buffer
	PrintTableIX(&buf, sum)
	if !strings.Contains(buf.String(), "shorts improvement") {
		t.Fatal("printout incomplete")
	}
}

// TestTableX pins the fast config's Table X to recorded metrics
// (Wirelength, Vias, Shorts, Spacing), so neither the evaluator nor the
// suite's thresholds can move the table silently.
func TestTableX(t *testing.T) {
	m := func(wl, vias, shorts, spacing int) dr.Metrics {
		return dr.Metrics{Wirelength: wl, Vias: vias, Shorts: shorts, Spacing: spacing}
	}
	want := []TableXRow{
		{"18test5", m(4130, 3280, 54, 9), m(4126, 3278, 52, 9), m(4130, 3320, 54, 8)},
		{"18test5m", m(4110, 2908, 273, 8), m(4123, 2915, 277, 6), m(4124, 2954, 286, 12)},
	}
	rows := TableX(NewSuite(fastCfg()))
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, r, want[i])
		}
	}
	var buf bytes.Buffer
	PrintTableX(&buf, rows)
	if !strings.Contains(buf.String(), "detailed routing") {
		t.Fatal("printout incomplete")
	}
}

func TestGeoMeanAndMean(t *testing.T) {
	if g := geoMean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Fatalf("geoMean(2,8) = %v, want 4", g)
	}
	if geoMean(nil) != 0 {
		t.Fatal("geoMean(nil) != 0")
	}
	if m := mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %v", m)
	}
	if mean(nil) != 0 {
		t.Fatal("mean(nil) != 0")
	}
}

// TestSuiteOutputDeterministic locks the whole-pipeline determinism claim:
// two fresh suites must print byte-identical tables (no wall clock, map
// order, or goroutine scheduling may leak into any reported number).
func TestSuiteOutputDeterministic(t *testing.T) {
	render := func() string {
		s := NewSuite(Config{Scale: 0.003, Designs: []string{"18test5", "18test5m"}})
		var buf bytes.Buffer
		PrintTableVII(&buf, TableVII(s))
		PrintTableVIII(&buf, TableVIII(s))
		PrintTableIX(&buf, TableIX(s))
		PrintTableX(&buf, TableX(s))
		PrintFig3(&buf, Fig3(NewSuite(Config{Scale: 0.003,
			Designs: []string{"19test9", "19test7", "19test9m"}})))
		return buf.String()
	}
	a := render()
	b := render()
	if a != b {
		t.Fatal("experiment output is not byte-identical across runs")
	}
	if len(a) < 500 {
		t.Fatalf("suspiciously short output: %d bytes", len(a))
	}
}
