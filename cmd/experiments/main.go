// Command experiments regenerates the paper's evaluation tables and figures
// (Section IV) on the synthetic benchmark suite.
//
// Usage:
//
//	experiments                        # everything, 1% scale, all designs
//	experiments -exp fig3,tablevii     # a subset
//	experiments -scale 0.02 -designs 18test5,18test5m
//
// Experiment names: table3, fig3, tablev, fig12, tablevi, tablevii,
// tableviii, tableix, tablex.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fastgr/internal/bench"
)

func main() {
	var (
		exps    = flag.String("exp", "all", "comma-separated experiments (or 'all')")
		scale   = flag.Float64("scale", 0.01, "benchmark scale in (0,1]")
		designs = flag.String("designs", "", "comma-separated design subset (default: all twelve)")
		verbose = flag.Bool("v", false, "log each routing run")
	)
	flag.Parse()

	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	if *designs != "" {
		cfg.Designs = strings.Split(*designs, ",")
	}
	suite := bench.NewSuite(cfg)
	if *verbose {
		suite.Verbose = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "[%s] "+format+"\n",
				append([]interface{}{time.Now().Format("15:04:05")}, args...)...)
		}
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := want["all"]
	ran := 0
	run := func(name string, fn func()) {
		if all || want[name] {
			fn()
			fmt.Println()
			ran++
		}
	}

	start := time.Now()
	run("table3", func() { bench.PrintTableIII(os.Stdout, bench.TableIII(suite)) })
	run("fig3", func() { bench.PrintFig3(os.Stdout, bench.Fig3(suite)) })
	run("tablev", func() { bench.PrintTableV(os.Stdout, bench.TableV(suite)) })
	run("fig12", func() { bench.PrintFig12(os.Stdout, bench.Fig12(suite)) })
	run("tablevi", func() { bench.PrintTableVI(os.Stdout, bench.TableVI(suite)) })
	run("tablevii", func() { bench.PrintTableVII(os.Stdout, bench.TableVII(suite)) })
	run("tableviii", func() { bench.PrintTableVIII(os.Stdout, bench.TableVIII(suite)) })
	run("tableix", func() { bench.PrintTableIX(os.Stdout, bench.TableIX(suite)) })
	run("tablex", func() { bench.PrintTableX(os.Stdout, bench.TableX(suite)) })

	// Extras beyond the paper's numbered tables (opt-in, not part of
	// 'all'): -exp zerocopy,edgeshift,devsweep,staircase,history.
	if want["zerocopy"] {
		bench.PrintZeroCopyAblation(os.Stdout, bench.ZeroCopyAblation(suite))
		fmt.Println()
		ran++
	}
	if want["edgeshift"] {
		bench.PrintEdgeShiftAblation(os.Stdout, bench.EdgeShiftAblation(suite))
		fmt.Println()
		ran++
	}
	if want["devsweep"] {
		bench.PrintDeviceSweep(os.Stdout, bench.DeviceSweep(suite, cfg.Designs[0]))
		fmt.Println()
		ran++
	}
	if want["staircase"] {
		bench.PrintStaircaseAblation(os.Stdout, bench.StaircaseAblation(suite))
		fmt.Println()
		ran++
	}
	if want["history"] {
		bench.PrintHistoryAblation(os.Stdout, bench.HistoryAblation(suite))
		fmt.Println()
		ran++
	}

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: nothing matched %q\n", *exps)
		os.Exit(2)
	}
	fmt.Printf("experiments done in %v (scale %.4f)\n", time.Since(start).Round(time.Millisecond), *scale)
}
