package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"fastgr/internal/atomicio"
	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/guide"
	"fastgr/internal/obs"
	"fastgr/internal/serve"
)

// maxServeOverheadPct is the daemon tax budget: routing a design through
// fastgrd's job pipeline (journal, queue, containment wiring, guide
// write) may cost at most this much over calling core.Route directly
// with the same options and emitting the same guide file. tier1.sh runs
// `benchgen -serve` and fails the build past this line.
const maxServeOverheadPct = 5.0

// serveScale pins the bench workload. Big enough that one job's service
// time dwarfs scheduling noise, small enough that the latency sweep's
// dozens of jobs stay inside a CI budget.
const serveScale = 0.005

// serveLatency is one row of the concurrency sweep: p50/p99 client
// submit-to-done latency with N submitters hammering the daemon.
type serveLatency struct {
	Submitters int     `json:"submitters"`
	Jobs       int     `json:"jobs"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
}

type serveReport struct {
	Design  string  `json:"design"`
	Scale   float64 `json:"scale"`
	Runners int     `json:"runners"`

	// Overhead side: min-of-samples service time through the daemon
	// pipeline (journal transitions + route + guide write, read from the
	// serve.job_service_ns histogram so client polling never pollutes it)
	// against min-of-samples direct execution (generate + core.Route +
	// guide file), interleaved ABBA like the other paired benches.
	DirectNsPerOp int64   `json:"direct_ns_per_op"`
	DaemonNsPerOp int64   `json:"daemon_ns_per_op"`
	OverheadPct   float64 `json:"overhead_pct"`

	// Latency side: client-observed submit-to-done under rising
	// concurrency. Informational — queueing delay is supposed to grow.
	Latency []serveLatency `json:"latency"`

	MaxOverheadPct float64   `json:"max_overhead_pct"`
	Meta           BenchMeta `json:"meta"`
}

// runServe measures the fastgrd daemon path against direct core.Route
// execution and sweeps job latency over 1/4/16 concurrent submitters,
// writing the record as JSON. It returns an error — failing the build —
// when the daemon-path overhead exceeds the budget.
func runServe(out string) error {
	rep := serveReport{
		Design:         "18test5m",
		Scale:          serveScale,
		Runners:        4,
		MaxOverheadPct: maxServeOverheadPct,
	}

	dir, err := os.MkdirTemp("", "benchserve-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	srv, err := serve.New(serve.Config{
		Dir:      dir,
		Runners:  rep.Runners,
		QueueCap: 64,
		Obs:      &obs.Observer{Metrics: reg, Health: obs.NewHealth()},
	})
	if err != nil {
		return err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer srv.Drain(time.Minute)
	base := "http://" + srv.Addr()

	spec := serve.JobSpec{Design: rep.Design, Scale: rep.Scale}

	// Overhead: ABBA pairs. The daemon sample is the server-side service
	// time — the delta of the job-service histogram's sum across one job —
	// so the client's poll cadence cancels out of the comparison. The
	// direct side attaches the same metrics registry the daemon gives its
	// jobs: the observability tax has its own bench (BENCH_obs); this gate
	// isolates the daemon pipeline itself.
	const pairs = 6
	rep.DirectNsPerOp, rep.DaemonNsPerOp = int64(1)<<62, int64(1)<<62
	directOpt := directServeOptions(rep.Scale)
	directOpt.Obs = &obs.Observer{Metrics: reg, Health: obs.NewHealth()}
	directOnce := func() (int64, error) {
		start := time.Now()
		d, err := design.Generate(rep.Design, rep.Scale)
		if err != nil {
			return 0, err
		}
		res, err := core.Route(d, directOpt)
		if err != nil {
			return 0, err
		}
		if err := writeDirectGuides(dir, res); err != nil {
			return 0, err
		}
		return time.Since(start).Nanoseconds(), nil
	}
	h := reg.Histogram(obs.MServeJobNs, obs.Pow2Buckets(1<<20, 24))
	daemonOnce := func() (int64, error) {
		before := h.Sum()
		id, err := submitServeJob(base, spec)
		if err != nil {
			return 0, err
		}
		if err := waitServeJob(base, id, 2*time.Minute); err != nil {
			return 0, err
		}
		return h.Sum() - before, nil
	}
	for r := 0; r < pairs; r++ {
		order := []func() (int64, error){directOnce, daemonOnce}
		dst := []*int64{&rep.DirectNsPerOp, &rep.DaemonNsPerOp}
		if r%2 == 1 {
			order[0], order[1] = order[1], order[0]
			dst[0], dst[1] = dst[1], dst[0]
		}
		for i, fn := range order {
			ns, err := fn()
			if err != nil {
				return fmt.Errorf("serve bench pair %d: %w", r, err)
			}
			if ns < *dst[i] {
				*dst[i] = ns
			}
		}
	}
	rep.OverheadPct = 100 * (float64(rep.DaemonNsPerOp)/float64(rep.DirectNsPerOp) - 1)

	// Latency sweep: each submitter pushes jobsPer jobs back to back and
	// times submit → terminal; the row aggregates every sample.
	const jobsPer = 2
	for _, n := range []int{1, 4, 16} {
		samples := make([]float64, 0, n*jobsPer)
		var mu sync.Mutex
		var wg sync.WaitGroup
		errs := make([]error, n)
		for w := 0; w < n; w++ {
			wg.Add(1)
			//lint:ignore goroutine-hygiene concurrent HTTP submitters modeling independent clients; joined by wg.Wait below
			go func(w int) {
				defer wg.Done()
				for k := 0; k < jobsPer; k++ {
					start := time.Now()
					id, err := submitServeJob(base, spec)
					if err == nil {
						err = waitServeJob(base, id, 5*time.Minute)
					}
					if err != nil {
						errs[w] = err
						return
					}
					ms := float64(time.Since(start).Nanoseconds()) / 1e6
					mu.Lock()
					samples = append(samples, ms)
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("serve bench latency sweep n=%d: %w", n, err)
			}
		}
		sort.Float64s(samples)
		rep.Latency = append(rep.Latency, serveLatency{
			Submitters: n,
			Jobs:       len(samples),
			P50Ms:      samples[len(samples)/2],
			P99Ms:      samples[int(math.Ceil(0.99*float64(len(samples))))-1],
		})
	}

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
		fmt.Printf("serve daemon overhead record written to %s\n", out)
	}
	if rep.OverheadPct > maxServeOverheadPct {
		return fmt.Errorf("daemon-path overhead %.2f%% exceeds the %.1f%% budget (direct %d ns/op, daemon %d ns/op)",
			rep.OverheadPct, maxServeOverheadPct, rep.DirectNsPerOp, rep.DaemonNsPerOp)
	}
	return nil
}

// directServeOptions mirrors what the daemon resolves for the bench
// spec: the fastgr CLI defaults with scaled thresholds.
func directServeOptions(scale float64) core.Options {
	opt := core.DefaultOptions(core.FastGRL)
	opt.T1, opt.T2 = core.ScaledThreshold(100, scale), core.ScaledThreshold(500, scale)
	return opt
}

// writeDirectGuides emits guides the way the CLI (and the daemon) do,
// so the direct side pays the same artifact cost.
func writeDirectGuides(dir string, res *core.Result) error {
	guides := guide.FromResult(res)
	if err := guide.Covers(res, guides); err != nil {
		return err
	}
	f, err := atomicio.Create(dir + "/direct.guides")
	if err != nil {
		return err
	}
	defer f.Abort()
	if err := guide.Write(f, guides); err != nil {
		return err
	}
	return f.Commit()
}

// submitServeJob POSTs a job and returns its ID.
func submitServeJob(base string, spec serve.JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit: status %d: %s", resp.StatusCode, b)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// waitServeJob polls a job until it is done (any other terminal state is
// an error here — the bench never cancels).
func waitServeJob(base, id string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return err
		}
		var j serve.Job
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil {
			return err
		}
		switch j.State {
		case serve.StateDone:
			return nil
		case serve.StateFailed, serve.StateCancelled:
			return fmt.Errorf("job %s ended %s: %s", id, j.State, j.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after %v", id, j.State, budget)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
