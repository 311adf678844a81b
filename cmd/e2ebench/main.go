// Command e2ebench is the end-to-end performance ledger: four long-run
// workloads, nine end-to-end metrics and a per-layer trace, behind the
// BENCHMARK.json at the repository root.
//
// Usage:
//
//	go run ./cmd/e2ebench -workload <name|all> [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//
// Every metric is printed as "workload metric value unit"; the last line
// of standard output is one JSON object {correct, attempted, failed,
// metrics} holding the end-to-end metrics (-trace 0) or the per-layer
// metrics (-trace 1). Every op's output is verified and the exit status
// is non-zero if any op failed. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"fastgr/internal/atomicio"
)

// hostStamp is carried by every output: two result files are only ever
// compared when their stamps agree.
type hostStamp struct {
	NumCPU      int     `json:"num_cpu"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	ExecWorkers int     `json:"exec_workers"`
	GoVersion   string  `json:"go_version"`
	GitRev      string  `json:"git_rev"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
}

// workloadStamp pins what a workload routed (pool instance 0).
type workloadStamp struct {
	Design string  `json:"design"`
	Scale  float64 `json:"scale"`
	Nets   int     `json:"nets"`
	GridW  int     `json:"grid_w"`
	GridH  int     `json:"grid_h"`
	Layers int     `json:"layers"`
	Pool   int     `json:"pool"`
}

func currentStamp(seed int64, seconds float64) hostStamp {
	rev := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		if s := strings.TrimSpace(string(out)); s != "" {
			rev = s
		}
	}
	return hostStamp{
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		ExecWorkers: execWorkers,
		GoVersion:   runtime.Version(),
		GitRev:      rev,
		Seed:        seed,
		Seconds:     seconds,
	}
}

// result is one workload's outcome, as printed and as written to -out.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Stamp     workloadStamp      `json:"stamp"`
	Samples   int                `json:"samples"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]reading `json:"metrics"`
}

// verdict is the last line of standard output.
type verdict struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

// config is one invocation.
type config struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Sz      sizing
	WorkDir string // scratch root inside the checkout; a traced run leaves its span file here
	Stamp   hostStamp
}

// tracePath is where a traced run of workload name writes its spans.
func (c config) tracePath(name string) string {
	return filepath.Join(c.WorkDir, "e2ebench-trace-"+name+".json")
}

// defs is the metric table the invocation reports.
func (c config) defs() []metricDef {
	if c.Trace {
		return perLayer
	}
	return endToEnd
}

// runWorkload executes one workload and returns its result. An error
// means the harness itself could not run; failed ops are in the result.
func runWorkload(w workload, cfg config) (result, error) {
	dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	r := &run{W: w, Sz: cfg.Sz, Seed: cfg.Seed, Seconds: cfg.Seconds, Dir: dir, Tally: newTally()}
	l := newLedger(cfg.defs())
	var err error
	switch {
	case cfg.Trace:
		err = r.traced(l, cfg.tracePath(w.Name), cfg.Stamp)
	case w.Daemon:
		err = r.daemonEndToEnd(l)
	default:
		err = r.routeEndToEnd(l)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	// Per-layer rows a workload cannot measure read 0; so does everything
	// a failed run never reached (the run is rejected on ops_failed).
	metrics, err := l.readings(cfg.Trace || r.Tally.Failed > 0)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	return result{
		Workload: w.Name, Trace: cfg.Trace, Stamp: r.Stamp, Samples: r.Samples,
		Attempted: r.Tally.Attempted, Failed: r.Tally.Failed, Errors: r.Tally.Errors,
		Metrics: metrics,
	}, nil
}

func printResult(res result, defs []metricDef) {
	s := res.Stamp
	fmt.Printf("# %s: %s@%v %d nets %dx%dx%d pool=%d samples=%d\n",
		res.Workload, s.Design, s.Scale, s.Nets, s.GridW, s.GridH, s.Layers, s.Pool, res.Samples)
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Printf("%s %s %s %s\n", res.Workload, d.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Printf("%s ops_attempted %d count\n", res.Workload, res.Attempted)
	fmt.Printf("%s ops_failed %d count\n", res.Workload, res.Failed)
	for _, e := range res.Errors {
		fmt.Printf("# %s FAILED %s\n", res.Workload, e)
	}
}

// traceFlag accepts -trace 0|1 (and true|false) as a value flag: the
// benchmark driver passes the value as a separate argument, which a Go
// bool flag would not consume.
type traceFlag bool

func (t *traceFlag) String() string { return strconv.FormatBool(bool(*t)) }

func (t *traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	if err != nil {
		return fmt.Errorf("want 0 or 1")
	}
	*t = traceFlag(v)
	return nil
}

func main() {
	var trace traceFlag
	var (
		name    = flag.String("workload", "all", "workload to run: maze_5l | pattern_9l | sharded_19m | daemon_mix | all")
		seed    = flag.Int64("seed", 0, "draws the order in which each round visits the design pool (and the daemon's job order); never changes what is routed")
		seconds = flag.Float64("seconds", 20, "how long the timed rounds run (whole rounds; at least one)")
		out     = flag.String("out", "", "also write the stamped results as JSON to this file")
	)
	flag.Var(&trace, "trace", "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run plus the layer replay, spans in .bench_build/e2ebench-trace-<workload>.json")
	flag.Parse()

	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := workloadByName(*name); ok {
		todo = []workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds %v must be positive", *seconds))
	}

	runtime.GOMAXPROCS(maxProcs)
	stamp := currentStamp(*seed, *seconds)
	fmt.Printf("# stamp num_cpu=%d gomaxprocs=%d exec_workers=%d go=%s git=%s seed=%d seconds=%v trace=%v\n",
		stamp.NumCPU, stamp.GoMaxProcs, stamp.ExecWorkers, stamp.GoVersion, stamp.GitRev, stamp.Seed, stamp.Seconds, bool(trace))

	final := verdict{Metrics: map[string]reading{}}
	var results []result
	for _, w := range todo {
		cfg := config{Seed: *seed, Seconds: *seconds, Trace: bool(trace), Sz: fullSizing, WorkDir: ".bench_build", Stamp: stamp}
		res, err := runWorkload(w, cfg)
		if err != nil {
			fatal(err)
		}
		printResult(res, cfg.defs())
		results = append(results, res)
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(todo) > 1 {
				k = w.Name + "/" + k
			}
			final.Metrics[k] = m
		}
	}
	final.Correct = final.Failed == 0

	if *out != "" {
		doc := struct {
			Stamp   hostStamp `json:"stamp"`
			Results []result  `json:"results"`
		}{stamp, results}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := atomicio.WriteFile(*out, append(data, '\n')); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(2)
}
