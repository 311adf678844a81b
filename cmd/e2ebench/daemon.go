package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/obs"
	"fastgr/internal/serve"
)

// Daemon sizing: two runners, one exec worker each, and a closed loop
// that keeps two jobs outstanding — the daemon is busy but never queues
// more than it runs, so latency is service time plus per-job overhead.
const (
	daemonRunners     = 2
	daemonExecWorkers = 1
	daemonOutstanding = 2
	pollEvery         = 2 * time.Millisecond
)

// daemonRouters is the mix: every pool instance is routed by each.
var daemonRouters = []struct {
	Name    string
	Variant core.Variant
}{{"cugr", core.CUGR}, {"fastgrl", core.FastGRL}, {"fastgrh", core.FastGRH}}

// jobKind is one distinct job of the mix — a pool instance under one
// router — with what an in-process run of the same spec produced.
type jobKind struct {
	Key    string
	Spec   serve.JobSpec
	Nets   int
	Guides []byte // reference guide file, byte for byte
	Report core.Report
	// Direct is the in-process wall of the same work the daemon's service
	// time covers: generate, route, write guides.
	Direct time.Duration
}

// daemonBench is a running daemon plus the references its jobs are
// checked against.
type daemonBench struct {
	srv    *serve.Server
	base   string
	dir    string
	client *http.Client
	kinds  []jobKind
	// refused counts submissions the daemon turned away (429/503).
	refused int
}

func (d *daemonBench) close() {
	d.client.CloseIdleConnections()
	d.srv.Drain(time.Minute)
}

// setupDaemon is daemon_mix's set-up: start an in-process fastgrd on a
// fresh state directory and route every job kind once in-process for the
// reference guide files.
func (r *run) setupDaemon(rep int) (*daemonBench, time.Duration, error) {
	sw := obs.StartStopwatch()
	dir := filepath.Join(r.Dir, fmt.Sprintf("daemon-%d", rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	srv, err := serve.New(serve.Config{Dir: dir, Runners: daemonRunners, QueueCap: 16})
	if err != nil {
		return nil, 0, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, 0, err
	}
	db := &daemonBench{srv: srv, base: "http://" + srv.Addr(), dir: dir, client: &http.Client{}}
	for k := 0; k < r.Sz.Pool; k++ {
		scale := r.W.instanceScale(r.Sz, k)
		for _, router := range daemonRouters {
			kind, err := r.referenceKind(k, scale, router.Name, router.Variant)
			if err != nil {
				db.close()
				return nil, 0, err
			}
			db.kinds = append(db.kinds, kind)
		}
	}
	return db, sw.Elapsed(), nil
}

// referenceKind routes one job kind in-process, exactly as the daemon
// resolves the spec, and keeps its guide file as the reference.
func (r *run) referenceKind(k int, scale float64, router string, variant core.Variant) (jobKind, error) {
	kind := jobKind{
		Key:  fmt.Sprintf("instance[%d]/%s", k, router),
		Spec: serve.JobSpec{Design: r.W.Design, Scale: scale, Router: router, ExecWorkers: daemonExecWorkers},
	}
	w := r.W
	w.Variant = variant
	opt := w.options(scale)
	opt.ExecWorkers = daemonExecWorkers

	sw := obs.StartStopwatch()
	d, err := design.Generate(r.W.Design, scale)
	if err != nil {
		return kind, err
	}
	genWall := sw.Elapsed()
	out, err := routeOp(nil, 0, d, opt, r.guidePath())
	if !r.Tally.record(kind.Key, fingerprintOf(out.Report), err) {
		return kind, fmt.Errorf("reference %s: %v", kind.Key, err)
	}
	kind.Direct = genWall + out.Wall
	kind.Nets = out.Nets
	kind.Report = out.Report
	if kind.Guides, err = os.ReadFile(r.guidePath()); err != nil {
		return kind, err
	}
	if k == 0 && router == daemonRouters[0].Name {
		r.Stamp = workloadStamp{
			Design: d.Name, Scale: scale, Nets: len(d.Nets),
			GridW: d.GridW, GridH: d.GridH, Layers: d.NumLayers, Pool: r.Sz.Pool,
		}
	}
	return kind, nil
}

// jobSample is one finished job as the client saw it.
type jobSample struct {
	Kind    int
	Latency time.Duration // submit sent → guides fully read
	Submit  time.Duration
	Status  []time.Duration // one per poll
	Fetch   time.Duration
	Service time.Duration // JobResult.ServiceMs
	Score   float64
}

// inflight is a submitted job the loop is still polling.
type inflight struct {
	sample jobSample
	id     string
	start  obs.Stopwatch
	op     int // the id the job's spans share
	span   int
}

// submit POSTs one job; a refusal (429/503) is an error, never retried.
func (d *daemonBench) submit(spec serve.JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := d.client.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		d.refused++
		return "", fmt.Errorf("submit refused: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

func (d *daemonBench) status(id string) (serve.Job, error) {
	var j serve.Job
	resp, err := d.client.Get(d.base + "/v1/jobs/" + id)
	if err != nil {
		return j, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return j, fmt.Errorf("status of %s: HTTP %d", id, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&j)
	return j, err
}

func (d *daemonBench) guides(id string) ([]byte, error) {
	resp, err := d.client.Get(d.base + "/v1/jobs/" + id + "/guides")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("guides of %s: HTTP %d", id, resp.StatusCode)
	}
	return data, nil
}

// runBlock pushes one block of jobs (every kind once, in the given order)
// through the daemon from this one goroutine, keeping daemonOutstanding
// jobs in flight: POST /v1/jobs → poll GET /v1/jobs/{id} every 2 ms →
// GET /v1/jobs/{id}/guides fully read. It returns the jobs that passed.
func (r *run) runBlock(d *daemonBench, rec *recorder, order []int, opBase int) []jobSample {
	var done []jobSample
	var flying []*inflight
	next := 0
	for next < len(order) || len(flying) > 0 {
		for len(flying) < daemonOutstanding && next < len(order) {
			kind := d.kinds[order[next]]
			f := &inflight{sample: jobSample{Kind: order[next]}, op: opBase + next, start: obs.StartStopwatch()}
			next++
			f.span = rec.start("job", noSpan, f.op)
			sp := rec.start("serve.submit", f.span, f.op)
			id, err := d.submit(kind.Spec)
			rec.end(sp)
			f.sample.Submit = f.start.Elapsed()
			if err != nil {
				rec.end(f.span)
				r.Tally.record(kind.Key, fingerprint{}, err)
				continue
			}
			f.id = id
			flying = append(flying, f)
		}
		finished := false
		for i := 0; i < len(flying); i++ {
			f := flying[i]
			sw := obs.StartStopwatch()
			sp := rec.start("serve.status", f.span, f.op)
			job, err := d.status(f.id)
			rec.end(sp)
			f.sample.Status = append(f.sample.Status, sw.Elapsed())
			if err == nil && (job.State == serve.StateQueued || job.State == serve.StateRunning) {
				continue
			}
			// Terminal (or unreachable): this job leaves the loop.
			flying = append(flying[:i], flying[i+1:]...)
			i--
			finished = true
			fp, err := d.collect(rec, f, job, err)
			rec.end(f.span)
			if r.Tally.record(d.kinds[f.sample.Kind].Key, fp, err) {
				done = append(done, f.sample)
			}
		}
		if !finished && len(flying) > 0 {
			time.Sleep(pollEvery)
		}
	}
	return done
}

// collect finishes a job that left the queued/running states: it must be
// done, its guides must equal the in-process reference byte for byte, and
// the quality it reports joins the reference's modeled time in the
// fingerprint — a daemon job that scores differently from the in-process
// run of the same spec breaks determinism like any other rep.
func (d *daemonBench) collect(rec *recorder, f *inflight, job serve.Job, err error) (fingerprint, error) {
	kind := d.kinds[f.sample.Kind]
	switch {
	case err != nil:
		return fingerprint{}, err
	case job.State != serve.StateDone || job.Result == nil:
		return fingerprint{}, fmt.Errorf("job %s ended %s: %s", f.id, job.State, job.Error)
	}
	sw := obs.StartStopwatch()
	sp := rec.start("serve.guides", f.span, f.op)
	data, err := d.guides(f.id)
	rec.end(sp)
	f.sample.Fetch = sw.Elapsed()
	f.sample.Latency = f.start.Elapsed()
	if err != nil {
		return fingerprint{}, err
	}
	if !bytes.Equal(data, kind.Guides) {
		return fingerprint{}, fmt.Errorf("job %s: guides differ from the in-process run (%d vs %d bytes)", f.id, len(data), len(kind.Guides))
	}
	res := job.Result
	f.sample.Service = time.Duration(res.ServiceMs) * time.Millisecond
	f.sample.Score = res.Score
	fp := fingerprintOf(kind.Report)
	fp.Score, fp.Wirelength, fp.Vias, fp.Shorts = res.Score, res.Wirelength, res.Vias, res.Overflow
	return fp, nil
}

// jobHeap is daemon_mix's peak_heap_mb: what one job of the mix holds at
// its peak, as the route workloads measure it. Before the daemon or any
// reference exists, instance 0 is routed in-process once under each router
// with HeapGC on (live bytes at stage boundaries); the mean of the three
// PeakHeapBytes is returned. The daemon's own retained heap is a fraction
// of a MiB and moves by a few percent with connection and timer state, so
// it cannot carry a bound; what a job costs in memory is what its
// admission budget reserves.
func (r *run) jobHeap() (float64, error) {
	scale := r.W.instanceScale(r.Sz, 0)
	var total float64
	for _, router := range daemonRouters {
		d, err := design.Generate(r.W.Design, scale)
		if err != nil {
			return 0, err
		}
		w := r.W
		w.Variant = router.Variant
		opt := w.options(scale)
		opt.ExecWorkers = daemonExecWorkers
		opt.HeapGC = true
		out, err := routeOp(nil, 0, d, opt, r.guidePath())
		key := fmt.Sprintf("instance[0]/%s", router.Name)
		if !r.Tally.record(key, fingerprintOf(out.Report), err) {
			return 0, fmt.Errorf("heap op %s: %v", key, err)
		}
		total += float64(out.Report.PeakHeapBytes)
	}
	return total / float64(len(daemonRouters)), nil
}

// maxDaemonSetups caps the set-up repetitions of daemon_mix: one costs a
// second (fifteen in-process routes), against 0.1-0.5 s for a route pool.
const maxDaemonSetups = 5

// repeatDaemonSetup runs set-up up to maxDaemonSetups times, draining
// every daemon but the last, and returns the last with the median time.
func (r *run) repeatDaemonSetup() (*daemonBench, time.Duration, error) {
	var db *daemonBench
	var times []time.Duration
	for i := 0; i < r.Sz.SetupReps && i < maxDaemonSetups; i++ {
		if db != nil {
			db.close()
		}
		runtime.GC() // like an op, a repetition starts from a collected heap
		d, t, err := r.setupDaemon(i)
		if err != nil {
			return nil, 0, err
		}
		db = d
		times = append(times, t)
	}
	return db, medianDur(times), nil
}

// daemonEndToEnd is the untraced daemon_mix run: set-up, one warm-up
// block, then whole blocks — every job kind once, in a seed-drawn order —
// until -seconds is used up.
func (r *run) daemonEndToEnd(l *ledger) error {
	heap, err := r.jobHeap()
	if err != nil {
		return err
	}
	db, setup, err := r.repeatDaemonSetup()
	if err != nil {
		return err
	}
	defer db.close()
	rng := rand.New(rand.NewSource(r.Seed))
	r.runBlock(db, nil, roundOrder(rng, len(db.kinds)), 0)

	var samples []jobSample
	cpu0 := cpuTime()
	wall := r.timedRounds(func(int) {
		samples = append(samples, r.runBlock(db, nil, roundOrder(rng, len(db.kinds)), len(samples))...)
	})
	cpu := cpuTime() - cpu0
	if len(samples) == 0 {
		return nil
	}
	r.Samples = len(samples)

	var lat []float64
	var score float64
	var modeled time.Duration
	nets := 0
	for _, s := range samples {
		lat = append(lat, sec(s.Latency))
		nets += db.kinds[s.Kind].Nets
		score += s.Score
		modeled += db.kinds[s.Kind].Report.Times.Total
	}
	// Quality and modeled time are reported per block: every block holds
	// every kind once, so they repeat exactly whatever the block count.
	blocks := float64(len(samples)) / float64(len(db.kinds))

	l.set("setup_s", sec(setup))
	l.set("route_wall_s", median(lat))
	l.set("route_cpu_s", sec(cpu)/float64(len(samples)))
	l.set("peak_heap_mb", heap/(1<<20))
	l.set("quality_score", score/blocks)
	l.set("modeled_total", ms(modeled)/blocks)
	l.set("nets_per_s", float64(nets)/sec(wall))
	l.set("jobs_per_s", float64(len(samples))/sec(wall))
	l.set("job_p95_s", percentile(lat, 0.95))
	return nil
}

// tracedDaemon books the serve.* rows: a warm-up block, then blocks that
// alternate untraced and traced (every job's submit, polls and fetch
// under spans), so the recorder's own cost shows as the difference.
func (r *run) tracedDaemon(l *ledger, rec *recorder) error {
	db, _, err := r.setupDaemon(0)
	if err != nil {
		return err
	}
	defer db.close()
	rng := rand.New(rand.NewSource(r.Seed))
	submitted := len(r.runBlock(db, nil, roundOrder(rng, len(db.kinds)), 0))

	// What the daemon holds once the warm-up block is done and fetched —
	// its job table, the journal's resident buffer — next to the harness's
	// reference guides. Read after a fixed number of jobs, so the figure
	// does not grow with the block count.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	l.set("serve.retained_heap_kb", float64(mem.HeapAlloc)/(1<<10))

	const tracedBlocks = 4
	var all, plain, traced []jobSample
	for b := 0; b < tracedBlocks; b++ {
		if r.Sz.MaxRounds > 0 && b >= 2*r.Sz.MaxRounds {
			break
		}
		order := roundOrder(rng, len(db.kinds))
		if b%2 == 0 {
			got := r.runBlock(db, nil, order, len(all))
			plain, all = append(plain, got...), append(all, got...)
		} else {
			got := r.runBlock(db, rec, order, len(all))
			traced, all = append(traced, got...), append(all, got...)
		}
	}
	if r.Tally.Failed > 0 || len(plain) == 0 || len(traced) == 0 {
		return nil
	}
	submitted += len(all)

	latency := func(ss []jobSample) float64 {
		var v []float64
		for _, s := range ss {
			v = append(v, ms(s.Latency))
		}
		return median(v)
	}
	l.set("bench.trace_overhead_pct", 100*(latency(traced)/latency(plain)-1))

	var submit, status, fetch, service, wait, direct []float64
	polls := 0
	for _, s := range all {
		submit = append(submit, ms(s.Submit))
		for _, p := range s.Status {
			status = append(status, ms(p))
		}
		polls += len(s.Status)
		fetch = append(fetch, ms(s.Fetch))
		service = append(service, ms(s.Service))
		wait = append(wait, ms(s.Latency-s.Service-s.Fetch))
		direct = append(direct, ms(db.kinds[s.Kind].Direct))
	}
	l.set("serve.submit_ms", median(submit))
	l.set("serve.status_ms", median(status))
	l.set("serve.guides_fetch_ms", median(fetch))
	l.set("serve.service_ms", median(service))
	l.set("serve.queue_wait_ms", median(wait))
	l.set("serve.overhead_pct", 100*(median(service)/median(direct)-1))
	l.set("serve.polls_per_job", float64(polls)/float64(len(all)))
	l.set("serve.rejected", float64(db.refused))
	info, err := os.Stat(filepath.Join(db.dir, "jobs.jsonl"))
	if err != nil {
		return fmt.Errorf("daemon journal: %w", err)
	}
	l.set("serve.journal_bytes", float64(info.Size()))
	l.set("serve.journal_bytes_per_job", float64(info.Size())/float64(submitted))
	return nil
}
