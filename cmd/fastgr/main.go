// Command fastgr routes a benchmark (or a design file) with one of the three
// router variants and prints the routing report. It is the CLI face of the
// library: generate or load a design, run CUGR / FastGRL / FastGRH, and
// optionally dump the routing guides.
//
// Usage:
//
//	fastgr -design 18test5m -scale 0.01 -router fastgrh
//	fastgr -in mydesign.txt -router cugr -guides guides.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"

	"fastgr/internal/atomicio"
	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/dr"
	"fastgr/internal/fault"
	"fastgr/internal/guide"
	"fastgr/internal/maze"
	"fastgr/internal/metrics"
	"fastgr/internal/obs"
	"fastgr/internal/obs/opsrv"
	"fastgr/internal/sched"
)

func main() {
	var (
		designName = flag.String("design", "18test5m", "benchmark name to generate (see cmd/benchgen -list)")
		scale      = flag.Float64("scale", 0.01, "benchmark scale in (0,1]")
		inFile     = flag.String("in", "", "route a design file instead of a generated benchmark")
		router     = flag.String("router", "fastgrl", "router variant: cugr | fastgrl | fastgrh")
		scheme     = flag.String("sort", "hpwl-asc", "net ordering: pins-asc|pins-desc|hpwl-asc|hpwl-desc|area-asc|area-desc")
		iters      = flag.Int("rrr", 3, "rip-up and reroute iterations")
		t1         = flag.Int("t1", 0, "selection threshold t1 (0 = scale the paper's 100)")
		t2         = flag.Int("t2", 0, "selection threshold t2 (0 = scale the paper's 500)")
		noSel      = flag.Bool("no-selection", false, "apply the hybrid kernel to every net (FastGRH only)")
		guides     = flag.String("guides", "", "write routing guides to this file")
		evalDR     = flag.Bool("dr", false, "evaluate the solution with the detailed-routing track assigner")
		workers    = flag.Int("exec-workers", 0, "host worker goroutines executing the router (0 = library default); never changes the reported result")
		shards     = flag.Int("shards", 0, "spatial shard count: cut the grid into leaf regions routed concurrently against windowed cost caches (0 = one leaf, the whole grid uncut; any count >= 1 yields identical output)")
		mazeAlg    = flag.String("maze-alg", "astar", "maze search algorithm: astar | dijkstra (identical geometry, different expansion counts)")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event timeline to this file (open at ui.perfetto.dev)")
		metricsOut = flag.String("metrics-out", "", "write the metrics registry and report as JSON to this file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		listenAddr = flag.String("listen", "", "serve the ops endpoints (/metrics, /healthz, /tracez, /debug/pprof) on this address for the duration of the run")
		stallAfter = flag.Duration("stall-after", 0, "with -listen: /healthz turns 503 when a running stage reports no progress for this long (0 = never)")
		journalOut = flag.String("journal", "", "write a structured JSON-lines run journal (stage boundaries and rip-up iterations) to this file, crash-safely")
		faultProb  = flag.Float64("fault-prob", 0, "arm the chaos injector: per-site failure probability in [0,1]; never changes the routed result")
		faultSeed  = flag.Int64("fault-seed", 0, "chaos injection seed (with -fault-prob 0, arms the containment layer silently)")
		mazeBudget = flag.Int64("maze-budget", 0, "per-net maze expansion budget; over-budget nets keep their pattern route (0 = unlimited)")
	)
	flag.Parse()

	if *inFile == "" && (*scale <= 0 || *scale > 1) {
		fatal(fmt.Errorf("-scale %v outside (0,1] — benchmarks are generated at a fraction of full size", *scale))
	}

	d, err := loadDesign(*inFile, *designName, *scale)
	if err != nil {
		fatal(err)
	}

	variant, err := core.ParseVariant(*router)
	if err != nil {
		fatal(err)
	}
	opt := core.DefaultOptions(variant)
	opt.RRRIters = *iters
	opt.SelectionOff = *noSel
	if *workers != 0 {
		opt.ExecWorkers = *workers // core rejects a negative count
	}
	opt.Shards = *shards
	if s, ok := sched.ParseScheme(*scheme); ok {
		opt.Scheme = s
	} else {
		fatal(fmt.Errorf("unknown sorting scheme %q", *scheme))
	}
	switch *mazeAlg {
	case "astar":
		opt.MazeAlgorithm = maze.AStar
	case "dijkstra":
		opt.MazeAlgorithm = maze.Dijkstra
	default:
		fatal(fmt.Errorf("unknown maze algorithm %q (want astar or dijkstra)", *mazeAlg))
	}
	if *t1 > 0 {
		opt.T1 = *t1
	} else if *inFile == "" {
		opt.T1 = core.ScaledThreshold(100, *scale)
	}
	if *t2 > 0 {
		opt.T2 = *t2
	} else if *inFile == "" {
		opt.T2 = core.ScaledThreshold(500, *scale)
	}
	if *faultProb < 0 || *faultProb > 1 {
		fatal(fmt.Errorf("-fault-prob %v outside [0,1]", *faultProb))
	}
	opt.MazeBudget = *mazeBudget
	if *faultProb > 0 || *faultSeed != 0 {
		opt.Fault = &fault.Options{Seed: *faultSeed, Probs: fault.UniformProbs(*faultProb)}
	}

	if *pprofAddr != "" {
		//lint:ignore goroutine-hygiene pprof listener lives for the whole process and touches no routing state
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "fastgr: pprof:", err)
			}
		}()
	}
	// The flight recorder is passive: attaching it never changes the
	// routed geometry, the modeled times or the reported quality.
	var o *obs.Observer
	if *traceOut != "" || *metricsOut != "" || *listenAddr != "" || *journalOut != "" {
		o = &obs.Observer{Metrics: obs.NewRegistry(), Health: obs.NewHealth()}
		if *traceOut != "" || *listenAddr != "" {
			o.Tracer = obs.NewTracer(1<<18, opt.ExecWorkers)
		}
		opt.Obs = o
	}
	var journal *obs.Journal
	if *journalOut != "" {
		journal = obs.NewJournal(*journalOut)
		opt.Journal = journal
	}
	if *listenAddr != "" {
		srv, err := opsrv.Start(*listenAddr, opsrv.Config{Obs: o, StallAfter: *stallAfter})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("ops endpoints on http://%s (/metrics /healthz /tracez /debug/pprof)\n", srv.Addr())
	}

	res, err := core.Route(d, opt)
	if err != nil {
		fatal(err)
	}
	printReport(res)
	if o != nil {
		fmt.Println()
		obs.WriteSummary(os.Stdout, o.Metrics.Snapshot())
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, o.Tracer); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s (%d spans, %d dropped)\n",
			*traceOut, o.Tracer.Recorded()-o.Tracer.Dropped(), o.Tracer.Dropped())
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, o, res); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics written to %s\n", *metricsOut)
	}
	if journal != nil {
		if err := journal.Err(); err != nil {
			fatal(fmt.Errorf("journal: %w", err))
		}
		fmt.Printf("journal written to %s (%d events)\n", *journalOut, journal.Events())
	}

	if *evalDR {
		m, err := dr.EvaluateChecked(res.Grid, res.Routes)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\ndetailed routing (track assignment): WL=%d vias=%d shorts=%d spacing=%d\n",
			m.Wirelength, m.Vias, m.Shorts, m.Spacing)
	}
	if *guides != "" {
		if err := writeGuides(*guides, res); err != nil {
			fatal(err)
		}
		fmt.Printf("guides written to %s\n", *guides)
	}
}

func loadDesign(inFile, name string, scale float64) (*design.Design, error) {
	if inFile != "" {
		f, err := os.Open(inFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return design.Read(f)
	}
	return design.Generate(name, scale)
}

func printReport(res *core.Result) {
	r := res.Report
	fmt.Printf("design   %s (%d nets, %dx%d, %d layers)\n",
		r.Design, len(res.Design.Nets), res.Grid.W, res.Grid.H, res.Grid.L)
	fmt.Printf("router   %s\n", r.Variant)
	fmt.Printf("quality  WL=%d vias=%d shorts=%d score=%.1f\n",
		r.Quality.Wirelength, r.Quality.Vias, r.Quality.Shorts, r.Score)
	fmt.Printf("modeled  PATTERN=%v MAZE=%v TOTAL=%v\n",
		r.Times.Pattern, r.Times.Maze, r.Times.Total)
	fmt.Printf("wall     plan=%v pattern=%v maze=%v total=%v\n",
		r.Times.PlanWall, r.Times.PatternWall, r.Times.MazeWall, r.Times.WallTotal)
	fmt.Printf("stages   batches=%d nets-to-ripup=%d hybrid-edges=%d/%d pattern-score=%.1f\n",
		r.PatternBatches, r.NetsToRipup, r.HybridEdges, r.TotalEdges, r.PatternScore)
	fmt.Printf("heap     peak=%.1f MiB\n", float64(r.PeakHeapBytes)/(1<<20))
	// Every variant prints every row: a reader diffing two runs should
	// never wonder whether a stat was zero or just omitted.
	fmt.Printf("shards   k=%d leaves=%d boundary-nets=%d reroutes=%d reconcile=%v\n",
		r.Shards, r.ShardLeaves, r.BoundaryNets, r.BoundaryReroutes, r.ReconcileTime)
	fmt.Printf("fault    failed-nets=%d skipped-nets=%d kernel-fallbacks=%d budget-fallbacks=%d\n",
		r.Fault.FailedNets, r.Fault.SkippedNets, r.Fault.KernelFallbacks, r.Fault.BudgetFallbacks)
	for i, it := range r.RRR {
		fmt.Printf("  rrr[%d] nets=%d expansions=%d taskgraph=%v batch=%v shorts=%d score=%.1f\n",
			i, it.Nets, it.Expansions, it.TaskGraphTime, it.BatchTime, it.Quality.Shorts, it.Score)
	}
}

func writeTrace(path string, t *obs.Tracer) error {
	f, err := atomicio.Create(path)
	if err != nil {
		return err
	}
	defer f.Abort()
	if err := obs.WriteTrace(f, t); err != nil {
		return err
	}
	return f.Commit()
}

// writeMetrics dumps the metrics registry next to the report facts an
// external dashboard would want: quality, the modeled/wall split, and
// the per-iteration eq.-15 trajectory.
func writeMetrics(path string, o *obs.Observer, res *core.Result) error {
	r := res.Report
	out := struct {
		Design  string          `json:"design"`
		Variant string          `json:"variant"`
		Quality metrics.Quality `json:"quality"`
		Score   float64         `json:"score"`
		Times   core.StageTimes `json:"times"`

		PatternScore float64          `json:"patternScore"`
		RRR          []core.IterStats `json:"rrr"`

		Metrics obs.Snapshot `json:"metrics"`
	}{
		Design:       r.Design,
		Variant:      r.Variant,
		Quality:      r.Quality,
		Score:        r.Score,
		Times:        r.Times,
		PatternScore: r.PatternScore,
		RRR:          r.RRR,
		Metrics:      o.M().Snapshot(),
	}
	f, err := atomicio.Create(path)
	if err != nil {
		return err
	}
	defer f.Abort()
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	return f.Commit()
}

// writeGuides emits CUGR-style routing guides, verifying the coverage
// contract (every routed wire and via inside its net's boxes) first.
func writeGuides(path string, res *core.Result) error {
	guides := guide.FromResult(res)
	if err := guide.Covers(res, guides); err != nil {
		return fmt.Errorf("guide contract violated: %w", err)
	}
	f, err := atomicio.Create(path)
	if err != nil {
		return err
	}
	defer f.Abort()
	if err := guide.Write(f, guides); err != nil {
		return err
	}
	return f.Commit()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fastgr:", err)
	os.Exit(1)
}
