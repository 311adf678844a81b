package bench

import (
	"fmt"
	"io"
	"time"

	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/dr"
	"fastgr/internal/metrics"
	"fastgr/internal/sched"
)

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}

// ---------------------------------------------------------------- Table III

// TableIIIRow is one benchmark's statistics.
type TableIIIRow struct {
	Stats design.Stats
}

// TableIII generates the benchmark-statistics table (base designs, as in the
// paper; the "m" twins differ only in layer count).
func TableIII(s *Suite) []TableIIIRow {
	var rows []TableIIIRow
	for _, name := range design.BaseNames() {
		rows = append(rows, TableIIIRow{Stats: design.ComputeStats(s.Design(name))})
	}
	return rows
}

// PrintTableIII writes the table in the paper's layout.
func PrintTableIII(w io.Writer, rows []TableIIIRow) {
	fmt.Fprintf(w, "Table III: ICCAD2019-style benchmarks (scaled synthetic twins)\n")
	fmt.Fprintf(w, "%-10s %10s %10s %12s %8s %10s\n", "design", "#nets", "#pins", "grid", "#layers", "avgHPWL")
	for _, r := range rows {
		st := r.Stats
		fmt.Fprintf(w, "%-10s %10d %10d %6dx%-5d %8d %10.2f\n",
			st.Name, st.Nets, st.Pins, st.GridW, st.GridH, st.Layers, st.AvgHPWL)
	}
	fmt.Fprintf(w, "(each design also has an <name>m twin with 5 metal layers)\n")
}

// ------------------------------------------------------------------- Fig. 3

// Fig3Row is the runtime breakdown of the baseline router on one design.
type Fig3Row struct {
	Design      string
	Pattern     time.Duration
	Maze        time.Duration
	PatternFrac float64
}

// Fig3 reproduces the CUGR runtime breakdown on the three designs the paper
// plots: a PATTERN-dominated one, a balanced one and a MAZE-dominated one.
func Fig3(s *Suite) []Fig3Row {
	var rows []Fig3Row
	for _, name := range []string{"19test9", "19test7", "19test9m"} {
		res := s.Run(name, core.CUGR)
		t := res.Report.Times
		total := t.Pattern + t.Maze
		frac := 0.0
		if total > 0 {
			frac = float64(t.Pattern) / float64(total)
		}
		rows = append(rows, Fig3Row{Design: name, Pattern: t.Pattern, Maze: t.Maze, PatternFrac: frac})
	}
	return rows
}

// PrintFig3 writes the breakdown with proportion bars.
func PrintFig3(w io.Writer, rows []Fig3Row) {
	fmt.Fprintf(w, "Fig. 3: runtime breakdown of the baseline (CUGR) router\n")
	fmt.Fprintf(w, "%-10s %12s %12s %10s\n", "design", "PATTERN(ms)", "MAZE(ms)", "PATTERN%%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12s %12s %9.1f%%  ", r.Design, ms(r.Pattern), ms(r.Maze), r.PatternFrac*100)
		n := int(r.PatternFrac*30 + 0.5)
		for i := 0; i < 30; i++ {
			if i < n {
				fmt.Fprint(w, "#")
			} else {
				fmt.Fprint(w, "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// --------------------------------------------------------------- Table IV/V

// TableVRow is one (scheme, design) sorting-scheme measurement.
type TableVRow struct {
	Scheme  sched.Scheme
	Design  string
	Total   time.Duration
	Pattern time.Duration
	Maze    time.Duration
	Quality metrics.Quality
	Score   float64
}

// TableV evaluates the six inter-net sorting schemes of Table IV, applied in
// the rip-up-and-reroute iterations only, on the two designs the paper uses.
func TableV(s *Suite) []TableVRow {
	return tableVOn(s, []string{"18test10", "18test10m"})
}

func tableVOn(s *Suite, names []string) []TableVRow {
	var rows []TableVRow
	for _, name := range names {
		for _, scheme := range sched.Schemes {
			res := s.RunWithRRRScheme(name, scheme)
			r := res.Report
			rows = append(rows, TableVRow{
				Scheme:  scheme,
				Design:  name,
				Total:   r.Times.Total,
				Pattern: r.Times.Pattern,
				Maze:    r.Times.Maze,
				Quality: r.Quality,
				Score:   r.Score,
			})
		}
	}
	return rows
}

// PrintTableV writes the sorting-scheme comparison.
func PrintTableV(w io.Writer, rows []TableVRow) {
	fmt.Fprintf(w, "Table V: sorting schemes (substituted in rip-up and reroute only)\n")
	fmt.Fprintf(w, "%-10s %-10s %10s %12s %10s %9s %8s %7s %12s\n",
		"design", "scheme", "TOTAL(ms)", "PATTERN(ms)", "MAZE(ms)", "WL", "vias", "shorts", "score")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-10s %10s %12s %10s %9d %8d %7d %12.1f\n",
			r.Design, r.Scheme, ms(r.Total), ms(r.Pattern), ms(r.Maze),
			r.Quality.Wirelength, r.Quality.Vias, r.Quality.Shorts, r.Score)
	}
}

// ------------------------------------------------------------------ Fig. 12

// Fig12Row is one point of the t2 threshold sweep.
type Fig12Row struct {
	T2Full  int // full-scale threshold value (100..1000)
	T2      int // scaled value actually used
	Pattern time.Duration
	Score   float64
}

// Fig12Result is the sweep plus the CUGR baselines (the dashed lines).
type Fig12Result struct {
	Design          string
	Rows            []Fig12Row
	BaselinePattern time.Duration
	BaselineScore   float64
}

// Fig12 sweeps the selection threshold t2 from 100 to 1000 (full-scale
// units) with t1 fixed at 100 on 18test5m, as in the paper.
func Fig12(s *Suite) Fig12Result {
	const name = "18test5m"
	out := Fig12Result{Design: name}
	base := s.Run(name, core.CUGR)
	out.BaselinePattern = base.Report.Times.Pattern
	out.BaselineScore = base.Report.Score
	for full := 100; full <= 1000; full += 100 {
		t2 := core.ScaledThreshold(full, s.Cfg.Scale)
		res := s.RunWithT2(name, t2)
		out.Rows = append(out.Rows, Fig12Row{
			T2Full:  full,
			T2:      t2,
			Pattern: res.Report.Times.Pattern,
			Score:   res.Report.Score,
		})
	}
	return out
}

// PrintFig12 writes the sweep series.
func PrintFig12(w io.Writer, r Fig12Result) {
	fmt.Fprintf(w, "Fig. 12: %s with t1=100, varying t2 (full-scale units)\n", r.Design)
	fmt.Fprintf(w, "%-8s %-8s %14s %14s\n", "t2", "t2(scl)", "PATTERN(ms)", "score")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8d %-8d %14s %14.1f\n", row.T2Full, row.T2, ms(row.Pattern), row.Score)
	}
	fmt.Fprintf(w, "baseline CUGR: PATTERN=%sms score=%.1f\n", ms(r.BaselinePattern), r.BaselineScore)
}

// ----------------------------------------------------------------- Table VI

// TableVIRow compares FastGRH with and without the selection technique.
type TableVIRow struct {
	Design                   string
	PatternSel, PatternNoSel time.Duration
	TotalSel, TotalNoSel     time.Duration
	RipupSel, RipupNoSel     int
	ShortsSel, ShortsNoSel   int
}

// TableVISummary aggregates the ablation the way the paper quotes it.
type TableVISummary struct {
	Rows []TableVIRow
	// PatternSpeedup and TotalSpeedup are geometric means of
	// no-selection/with-selection time ratios (paper: 2.304x and 1.888x).
	PatternSpeedup float64
	TotalSpeedup   float64
	// RipupIncreasePct is the mean increase in nets passed to rip-up caused
	// by selection (paper: +21.1%).
	RipupIncreasePct float64
	// ShortsImprovementPct is the mean shorts improvement from selection
	// (paper: 14.742%).
	ShortsImprovementPct float64
}

// TableVI runs the selection ablation on every design.
func TableVI(s *Suite) TableVISummary {
	var sum TableVISummary
	var pat, tot, rip, sh []float64
	for _, name := range s.Cfg.Designs {
		sel := s.Run(name, core.FastGRH).Report
		nosel := s.RunSelectionOff(name).Report
		row := TableVIRow{
			Design:       name,
			PatternSel:   sel.Times.Pattern,
			PatternNoSel: nosel.Times.Pattern,
			TotalSel:     sel.Times.Total,
			TotalNoSel:   nosel.Times.Total,
			RipupSel:     sel.NetsToRipup,
			RipupNoSel:   nosel.NetsToRipup,
			ShortsSel:    sel.Quality.Shorts,
			ShortsNoSel:  nosel.Quality.Shorts,
		}
		sum.Rows = append(sum.Rows, row)
		if row.PatternSel > 0 {
			pat = append(pat, float64(row.PatternNoSel)/float64(row.PatternSel))
		}
		if row.TotalSel > 0 {
			tot = append(tot, float64(row.TotalNoSel)/float64(row.TotalSel))
		}
		if row.RipupNoSel > 0 {
			rip = append(rip, float64(row.RipupSel-row.RipupNoSel)/float64(row.RipupNoSel)*100)
		}
		sh = append(sh, metrics.ImprovementPct(float64(row.ShortsNoSel), float64(row.ShortsSel)))
	}
	sum.PatternSpeedup = geoMean(pat)
	sum.TotalSpeedup = geoMean(tot)
	sum.RipupIncreasePct = mean(rip)
	sum.ShortsImprovementPct = mean(sh)
	return sum
}

// PrintTableVI writes the ablation study.
func PrintTableVI(w io.Writer, sum TableVISummary) {
	fmt.Fprintf(w, "Table VI: FastGRH selection ablation (sel = with selection)\n")
	fmt.Fprintf(w, "%-10s %12s %12s %11s %11s %8s %8s %8s %8s\n",
		"design", "PAT sel(ms)", "PAT all(ms)", "TOT sel", "TOT all", "rip sel", "rip all", "S sel", "S all")
	for _, r := range sum.Rows {
		fmt.Fprintf(w, "%-10s %12s %12s %11s %11s %8d %8d %8d %8d\n",
			r.Design, ms(r.PatternSel), ms(r.PatternNoSel), ms(r.TotalSel), ms(r.TotalNoSel),
			r.RipupSel, r.RipupNoSel, r.ShortsSel, r.ShortsNoSel)
	}
	fmt.Fprintf(w, "selection pattern speedup %.3fx | total speedup %.3fx | rip-up increase %+.1f%% | shorts improvement %.3f%%\n",
		sum.PatternSpeedup, sum.TotalSpeedup, sum.RipupIncreasePct, sum.ShortsImprovementPct)
}

// ---------------------------------------------------------------- Table VII

// TableVIIRow is one design's overall comparison.
type TableVIIRow struct {
	Design                        string
	CUGRTotal, GRLTotal, GRHTotal time.Duration
	CUGRScore, GRLScore, GRHScore float64
	GRLSpeedup, GRHSpeedup        float64
}

// TableVIISummary is the overall-results table.
type TableVIISummary struct {
	Rows []TableVIIRow
	// Geometric-mean speedups over CUGR (paper: 2.489x and 1.970x).
	GRLSpeedup, GRHSpeedup float64
}

// TableVII runs all three routers on every design.
func TableVII(s *Suite) TableVIISummary {
	var sum TableVIISummary
	var ls, hs []float64
	for _, name := range s.Cfg.Designs {
		c := s.Run(name, core.CUGR).Report
		l := s.Run(name, core.FastGRL).Report
		h := s.Run(name, core.FastGRH).Report
		row := TableVIIRow{
			Design:    name,
			CUGRTotal: c.Times.Total, GRLTotal: l.Times.Total, GRHTotal: h.Times.Total,
			CUGRScore: c.Score, GRLScore: l.Score, GRHScore: h.Score,
		}
		if l.Times.Total > 0 {
			row.GRLSpeedup = float64(c.Times.Total) / float64(l.Times.Total)
			ls = append(ls, row.GRLSpeedup)
		}
		if h.Times.Total > 0 {
			row.GRHSpeedup = float64(c.Times.Total) / float64(h.Times.Total)
			hs = append(hs, row.GRHSpeedup)
		}
		sum.Rows = append(sum.Rows, row)
	}
	sum.GRLSpeedup = geoMean(ls)
	sum.GRHSpeedup = geoMean(hs)
	return sum
}

// PrintTableVII writes the overall results.
func PrintTableVII(w io.Writer, sum TableVIISummary) {
	fmt.Fprintf(w, "Table VII: overall results (TOTAL = PATTERN + MAZE, modeled)\n")
	fmt.Fprintf(w, "%-10s | %10s %12s | %10s %12s %6s | %10s %12s %6s\n",
		"design", "CUGR(ms)", "score", "GRL(ms)", "score", "spd", "GRH(ms)", "score", "spd")
	for _, r := range sum.Rows {
		fmt.Fprintf(w, "%-10s | %10s %12.1f | %10s %12.1f %5.2fx | %10s %12.1f %5.2fx\n",
			r.Design, ms(r.CUGRTotal), r.CUGRScore,
			ms(r.GRLTotal), r.GRLScore, r.GRLSpeedup,
			ms(r.GRHTotal), r.GRHScore, r.GRHSpeedup)
	}
	fmt.Fprintf(w, "geo-mean speedup: FastGRL %.3fx (paper 2.489x), FastGRH %.3fx (paper 1.970x)\n",
		sum.GRLSpeedup, sum.GRHSpeedup)
}

// --------------------------------------------------------------- Table VIII

// TableVIIIRow is one design's stage-level runtime breakdown.
type TableVIIIRow struct {
	Design string
	// Pattern stage: sequential CPU vs the two GPU kernels.
	PatternSeq, PatternGRL, PatternGRH time.Duration
	LKernelSpeedup, HKernelSpeedup     float64
	// Maze stage: batch-barrier vs task-graph models (FastGRL run).
	MazeBatch, MazeTaskGraph time.Duration
	SchedulerSpeedup         float64
	// Nets passed to rip-up per router.
	RipCUGR, RipGRL, RipGRH int
}

// TableVIIISummary is the runtime-breakdown table.
type TableVIIISummary struct {
	Rows []TableVIIIRow
	// Geometric means (paper: 9.324x L kernel, 2.070x hybrid kernel,
	// 2.501x scheduler).
	LKernelSpeedup, HKernelSpeedup, SchedulerSpeedup float64
	// RipReductionGRLPct / RipReductionGRHPct: mean reduction of nets to
	// rip up vs CUGR (paper: 2.4% and 23.3%).
	RipReductionGRLPct, RipReductionGRHPct float64
}

// TableVIII computes the per-stage breakdown.
func TableVIII(s *Suite) TableVIIISummary {
	var sum TableVIIISummary
	var lk, hk, sk, rl, rh []float64
	for _, name := range s.Cfg.Designs {
		c := s.Run(name, core.CUGR).Report
		l := s.Run(name, core.FastGRL).Report
		h := s.Run(name, core.FastGRH).Report
		row := TableVIIIRow{
			Design:        name,
			PatternSeq:    c.PatternSeqTime,
			PatternGRL:    l.Times.Pattern,
			PatternGRH:    h.Times.Pattern,
			MazeBatch:     l.MazeBatchTime,
			MazeTaskGraph: l.MazeTaskGraphTime,
			RipCUGR:       c.NetsToRipup,
			RipGRL:        l.NetsToRipup,
			RipGRH:        h.NetsToRipup,
		}
		if l.Times.Pattern > 0 {
			row.LKernelSpeedup = float64(c.PatternSeqTime) / float64(l.Times.Pattern)
			lk = append(lk, row.LKernelSpeedup)
		}
		if h.Times.Pattern > 0 {
			// As in the paper, the hybrid kernel's acceleration is measured
			// against the sequentially executed (L-shape) strategy; it is
			// lower than the L kernel's because the hybrid kernel evaluates
			// (M+N)xLxLxL candidates instead of LxL (Section IV-E).
			row.HKernelSpeedup = float64(c.PatternSeqTime) / float64(h.Times.Pattern)
			hk = append(hk, row.HKernelSpeedup)
		}
		if row.MazeTaskGraph > 0 {
			row.SchedulerSpeedup = float64(row.MazeBatch) / float64(row.MazeTaskGraph)
			sk = append(sk, row.SchedulerSpeedup)
		}
		if row.RipCUGR > 0 {
			rl = append(rl, float64(row.RipCUGR-row.RipGRL)/float64(row.RipCUGR)*100)
			rh = append(rh, float64(row.RipCUGR-row.RipGRH)/float64(row.RipCUGR)*100)
		}
		sum.Rows = append(sum.Rows, row)
	}
	sum.LKernelSpeedup = geoMean(lk)
	sum.HKernelSpeedup = geoMean(hk)
	sum.SchedulerSpeedup = geoMean(sk)
	sum.RipReductionGRLPct = mean(rl)
	sum.RipReductionGRHPct = mean(rh)
	return sum
}

// PrintTableVIII writes the stage breakdown.
func PrintTableVIII(w io.Writer, sum TableVIIISummary) {
	fmt.Fprintf(w, "Table VIII: runtime breakdown (PATTERN kernels and MAZE scheduling)\n")
	fmt.Fprintf(w, "%-10s %10s %9s %6s %9s %6s | %9s %9s %6s | %6s %6s %6s\n",
		"design", "seq(ms)", "GRL(ms)", "spd", "GRH(ms)", "spd", "batch", "taskg", "spd", "ripC", "ripL", "ripH")
	for _, r := range sum.Rows {
		fmt.Fprintf(w, "%-10s %10s %9s %5.1fx %9s %5.1fx | %9s %9s %5.2fx | %6d %6d %6d\n",
			r.Design, ms(r.PatternSeq), ms(r.PatternGRL), r.LKernelSpeedup,
			ms(r.PatternGRH), r.HKernelSpeedup,
			ms(r.MazeBatch), ms(r.MazeTaskGraph), r.SchedulerSpeedup,
			r.RipCUGR, r.RipGRL, r.RipGRH)
	}
	fmt.Fprintf(w, "geo-mean: L kernel %.3fx (paper 9.324x) | hybrid kernel %.3fx (paper 2.070x) | scheduler %.3fx (paper 2.501x)\n",
		sum.LKernelSpeedup, sum.HKernelSpeedup, sum.SchedulerSpeedup)
	fmt.Fprintf(w, "nets-to-ripup reduction vs CUGR: FastGRL %.1f%% (paper 2.4%%), FastGRH %.1f%% (paper 23.3%%)\n",
		sum.RipReductionGRLPct, sum.RipReductionGRHPct)
}

// ----------------------------------------------------------------- Table IX

// TableIXRow compares solution quality of the two FastGR variants.
type TableIXRow struct {
	Design   string
	GRL, GRH metrics.Quality
	GRLScore float64
	GRHScore float64
}

// TableIXSummary is the solution-quality table.
type TableIXSummary struct {
	Rows []TableIXRow
	// ShortsImprovementPct is the mean improvement of FastGRH over FastGRL
	// in shorts (paper: 27.855%).
	ShortsImprovementPct float64
}

// TableIX compares FastGRL and FastGRH quality on every design.
func TableIX(s *Suite) TableIXSummary {
	var sum TableIXSummary
	var imp []float64
	for _, name := range s.Cfg.Designs {
		l := s.Run(name, core.FastGRL).Report
		h := s.Run(name, core.FastGRH).Report
		sum.Rows = append(sum.Rows, TableIXRow{
			Design: name,
			GRL:    l.Quality, GRH: h.Quality,
			GRLScore: l.Score, GRHScore: h.Score,
		})
		imp = append(imp, metrics.ImprovementPct(float64(l.Quality.Shorts), float64(h.Quality.Shorts)))
	}
	sum.ShortsImprovementPct = mean(imp)
	return sum
}

// PrintTableIX writes the quality comparison.
func PrintTableIX(w io.Writer, sum TableIXSummary) {
	fmt.Fprintf(w, "Table IX: solution quality (FastGRL vs FastGRH)\n")
	fmt.Fprintf(w, "%-10s | %9s %8s %7s %12s | %9s %8s %7s %12s\n",
		"design", "L WL", "L vias", "L S", "L score", "H WL", "H vias", "H S", "H score")
	for _, r := range sum.Rows {
		fmt.Fprintf(w, "%-10s | %9d %8d %7d %12.1f | %9d %8d %7d %12.1f\n",
			r.Design, r.GRL.Wirelength, r.GRL.Vias, r.GRL.Shorts, r.GRLScore,
			r.GRH.Wirelength, r.GRH.Vias, r.GRH.Shorts, r.GRHScore)
	}
	fmt.Fprintf(w, "mean shorts improvement of FastGRH over FastGRL: %.3f%% (paper 27.855%%)\n",
		sum.ShortsImprovementPct)
}

// ------------------------------------------------------------------ Table X

// TableXRow is the detailed-routing evaluation of one design under all three
// routers' guides.
type TableXRow struct {
	Design         string
	CUGR, GRL, GRH dr.Metrics
}

// TableX evaluates detailed-routing quality under each router's guides.
func TableX(s *Suite) []TableXRow {
	var rows []TableXRow
	for _, name := range s.Cfg.Designs {
		c := s.Run(name, core.CUGR)
		l := s.Run(name, core.FastGRL)
		h := s.Run(name, core.FastGRH)
		rows = append(rows, TableXRow{
			Design: name,
			CUGR:   dr.Evaluate(c.Grid, c.Routes),
			GRL:    dr.Evaluate(l.Grid, l.Routes),
			GRH:    dr.Evaluate(h.Grid, h.Routes),
		})
	}
	return rows
}

// PrintTableX writes the post-detailed-routing comparison.
func PrintTableX(w io.Writer, rows []TableXRow) {
	fmt.Fprintf(w, "Table X: quality after detailed routing (track-assignment evaluator)\n")
	fmt.Fprintf(w, "%-10s | %-28s | %-28s | %-28s\n", "design",
		"CUGR  WL/vias/shorts/spc", "FastGRL  WL/vias/shorts/spc", "FastGRH  WL/vias/shorts/spc")
	f := func(m dr.Metrics) string {
		return fmt.Sprintf("%8d %7d %5d %5d", m.Wirelength, m.Vias, m.Shorts, m.Spacing)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s | %s | %s | %s\n", r.Design, f(r.CUGR), f(r.GRL), f(r.GRH))
	}
}
