// Command benchgen generates the synthetic ICCAD-2019-style benchmarks,
// prints Table III, and optionally serializes a design to a file. It also
// measures the host-parallel execution micro-benchmarks and records them as
// JSON, so the repository carries a perf trajectory baseline.
//
// Usage:
//
//	benchgen -list
//	benchgen -table3 -scale 0.01
//	benchgen -design 19test7m -scale 0.02 -o 19test7m.txt
//	benchgen -hostpar -o BENCH_hostpar.json
//	benchgen -obs -o BENCH_obs.json
//	benchgen -lint -o BENCH_lint.json
//	benchgen -maze -o BENCH_maze.json
//	benchgen -fault -o BENCH_fault.json
//	benchgen -shard -o BENCH_shard.json
//	benchgen -serve -o BENCH_serve.json
//	benchgen -regress [-baseline-ref HEAD]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fastgr/internal/atomicio"
	"fastgr/internal/bench"
	"fastgr/internal/design"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list benchmark names")
		table3   = flag.Bool("table3", false, "print Table III (benchmark statistics)")
		name     = flag.String("design", "", "generate this benchmark")
		scale    = flag.Float64("scale", 0.01, "benchmark scale in (0,1]")
		out      = flag.String("o", "", "write the output to this file (default stdout)")
		hostpar  = flag.Bool("hostpar", false, "measure host-parallel execution benchmarks and emit JSON")
		obsFlag  = flag.Bool("obs", false, "measure observability overhead on the pattern stage and emit JSON (fails if disabled-mode overhead exceeds the budget)")
		lintFlag = flag.Bool("lint", false, "measure the fastgrlint suite over the whole module and emit JSON (files/sec, findings)")
		mazeFlag = flag.Bool("maze", false, "measure the maze kernel (dijkstra/astar x cold/warm/congested cost field) and emit JSON (fails if an astar expansion on the warm field misses the cost gate)")
		faultBmk = flag.Bool("fault", false, "measure the fault containment layer's disabled-injection overhead and emit JSON (fails past the budget)")
		shardBmk = flag.Bool("shard", false, "run the cut plan against the one-leaf plan and emit JSON (fails if the cut plan misses the peak-heap reduction or quality-parity gates)")
		serveBmk = flag.Bool("serve", false, "measure the fastgrd daemon path vs direct core.Route and job latency under concurrent submitters, and emit JSON (fails past the overhead budget)")
		regress  = flag.Bool("regress", false, "re-validate every BENCH_*.json against its recorded gates and diff against the committed baseline (fails on a gate breach; warns on drift)")
		baseline = flag.String("baseline-ref", "HEAD", "git ref holding the baseline BENCH_*.json files for -regress")
	)
	flag.Parse()

	switch {
	case *regress:
		if err := runRegress(*baseline); err != nil {
			fatal(err)
		}
	case *hostpar:
		if err := runHostpar(*out); err != nil {
			fatal(err)
		}
	case *obsFlag:
		if err := runObs(*out); err != nil {
			fatal(err)
		}
	case *lintFlag:
		if err := runLint(*out); err != nil {
			fatal(err)
		}
	case *mazeFlag:
		if err := runMaze(*out); err != nil {
			fatal(err)
		}
	case *faultBmk:
		if err := runFault(*out); err != nil {
			fatal(err)
		}
	case *shardBmk:
		if err := runShard(*out); err != nil {
			fatal(err)
		}
	case *serveBmk:
		if err := runServe(*out); err != nil {
			fatal(err)
		}
	case *list:
		for _, n := range design.AllNames() {
			spec, _ := design.SpecByName(n)
			fmt.Printf("%-10s %8d nets %5dx%-5d %d layers\n",
				spec.Name, spec.Nets, spec.GridW, spec.GridH, spec.Layers)
		}
	case *table3:
		s := bench.NewSuite(bench.Config{Scale: *scale})
		bench.PrintTableIII(os.Stdout, bench.TableIII(s))
	case *name != "":
		d, err := design.Generate(*name, *scale)
		if err != nil {
			fatal(err)
		}
		var w io.Writer = os.Stdout
		var af *atomicio.File
		if *out != "" {
			af, err = atomicio.Create(*out)
			if err != nil {
				fatal(err)
			}
			defer af.Abort()
			w = af
		}
		if err := design.Write(w, d); err != nil {
			fatal(err)
		}
		if af != nil {
			if err := af.Commit(); err != nil {
				fatal(err)
			}
		}
		if *out != "" {
			st := design.ComputeStats(d)
			fmt.Printf("%s: %d nets, %d pins, %dx%d, %d layers -> %s\n",
				st.Name, st.Nets, st.Pins, st.GridW, st.GridH, st.Layers, *out)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgen:", err)
	os.Exit(1)
}
