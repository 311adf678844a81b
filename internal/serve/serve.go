// Package serve is the routing-as-a-service layer behind cmd/fastgrd: a
// long-running daemon that accepts routing jobs over HTTP/JSON, runs
// them through internal/core on a fixed pool of runner goroutines, and
// survives overload, deadlines, SIGTERM and crashes.
//
// The robustness contracts, each pinned by its own test:
//
//   - Admission control: a bounded FIFO queue with per-job memory
//     estimates. A full queue rejects with 429 and a Retry-After
//     derived from observed job service times; the accept loop never
//     blocks on a runner.
//   - Deadlines + cancellation: DELETE /v1/jobs/{id} and per-job
//     timeout_ms cancel the run's context, which core.RouteContext
//     polls at coordinator checkpoints only — a completed run is
//     bit-identical with or without a deadline attached, and an
//     aborted one ends with a typed JobError plus the partial stats.
//   - Graceful drain: Drain stops admission (503), lets in-flight jobs
//     finish within a budget, then checkpoints the stragglers back to
//     queued — they re-run after the next start.
//   - Crash safety: every job transition is journaled through the
//     Store (internal/atomicio's append-with-rollback); a process killed
//     at any instant restarts with every job either terminal (guides
//     served from disk) or requeued. Guides are written to disk before
//     the done record, so a journaled "done" always has its artifact.
//
// Job endpoints (mounted beside the opsrv ops endpoints on one mux):
//
//	POST   /v1/jobs             submit a JobSpec        → 202 {id}
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status JSON
//	GET    /v1/jobs/{id}/guides routing guides of a done job
//	DELETE /v1/jobs/{id}        cancel a queued or running job
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"fastgr/internal/core"
	"fastgr/internal/guide"
	"fastgr/internal/obs"
	"fastgr/internal/obs/opsrv"
)

// Config sizes the daemon. The zero Config is valid: every field has a
// serviceable default and Dir falls back to the OS temp dir pattern
// only in tests — production callers should always set Dir.
type Config struct {
	// Dir is the state directory: the job journal and guide artifacts.
	Dir string
	// Runners is the number of concurrent routing jobs (default 2).
	Runners int
	// QueueCap bounds queued-plus-running jobs (default 16); MaxBytes
	// bounds their summed memory estimates (default 4 GiB).
	QueueCap int
	MaxBytes int64
	// Obs supplies the daemon's metrics registry and health tracker;
	// nil builds a private one. Job runs attach the same registry, so
	// /metrics aggregates routing internals across jobs.
	Obs *obs.Observer
	// StallAfter configures /healthz stall detection (see opsrv).
	StallAfter time.Duration
	// DefaultServiceEstimate seeds the Retry-After estimate before any
	// job has completed (default 2s).
	DefaultServiceEstimate time.Duration
}

// Server is a running daemon.
type Server struct {
	cfg   Config
	obs   *obs.Observer
	store *Store
	q     *queue
	mux   *http.ServeMux

	ln  net.Listener
	srv *http.Server

	wg   sync.WaitGroup // runner goroutines
	quit chan struct{}  // closed to stop runners (drain)

	mu       sync.Mutex
	running  map[string]*runningJob
	draining bool
	requeue  bool // drain timed out: checkpoint in-flight jobs back to queued

	// pause, when set (tests only), runs in the two windows of runJob
	// where a DELETE races the runner's claim on a job: "claim", before
	// the running record, and "register", between that record and the
	// job's entry in running.
	pause func(window, id string)
}

// runningJob is the server's handle on an in-flight run.
type runningJob struct {
	cancel context.CancelFunc
}

// New builds a server over the state directory: opens (and replays) the
// store, requeues recovered jobs, and assembles the handler mux. It
// does not listen yet — Start does.
func New(cfg Config) (*Server, error) {
	if cfg.Runners <= 0 {
		cfg.Runners = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 4 << 30
	}
	if cfg.DefaultServiceEstimate <= 0 {
		cfg.DefaultServiceEstimate = 2 * time.Second
	}
	if cfg.Obs == nil {
		cfg.Obs = &obs.Observer{Metrics: obs.NewRegistry(), Health: obs.NewHealth()}
	}
	store, err := OpenStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		obs:     cfg.Obs,
		store:   store,
		q:       newQueue(cfg.QueueCap, cfg.MaxBytes),
		quit:    make(chan struct{}),
		running: map[string]*runningJob{},
	}
	for _, j := range store.Recovered() {
		jj := j
		// Recovered jobs bypass admission control: they were admitted
		// once and the journal is their ticket back in. The queue
		// reservation still happens so the budget stays truthful.
		s.q.mu.Lock()
		s.q.reserved++
		s.q.bytes += jj.bytes
		s.q.mu.Unlock()
		s.q.push(&jj)
		s.obs.M().Counter(obs.MServeRecovered).Add(1)
	}
	s.obs.M().Gauge(obs.MServeQueueDepth).Set(int64(s.q.depth()))
	s.mux = opsrv.Mux(opsrv.Config{Obs: s.obs, StallAfter: cfg.StallAfter})
	s.registerHandlers(s.mux)
	return s, nil
}

// Start listens on addr and serves until Drain or Close. The HTTP
// server carries the opsrv slow-client timeouts.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.srv = opsrv.NewHTTPServer(s.mux)
	for i := 0; i < s.cfg.Runners; i++ {
		s.wg.Add(1)
		go s.runnerLoop()
	}
	go s.srv.Serve(ln)
	return nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Drain shuts down gracefully: admission stops (submissions get 503),
// runners finish their current job if they can within the budget, and
// any job still in flight when the budget expires is checkpointed —
// cancelled at its next coordinator checkpoint and journaled back to
// queued so the next start re-runs it. Drain returns once the runners
// have exited and the listener is closed; a clean drain loses no jobs.
func (s *Server) Drain(budget time.Duration) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	close(s.quit)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(budget):
		// Budget expired: flip in-flight jobs to requeue-on-cancel and
		// fire their contexts; the runs stop at their next checkpoint.
		s.mu.Lock()
		s.requeue = true
		for _, rj := range s.running {
			rj.cancel()
		}
		s.mu.Unlock()
		<-done
	}
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}

// Close stops immediately: running jobs are cancelled and journaled
// back to queued (crash-equivalent but journaled; either way replay
// requeues them), the listener closes. For tests and fatal paths —
// production shutdown is Drain.
func (s *Server) Close() error {
	s.mu.Lock()
	wasDraining := s.draining
	s.draining = true
	s.requeue = true
	for _, rj := range s.running {
		rj.cancel()
	}
	s.mu.Unlock()
	if !wasDraining {
		close(s.quit)
	}
	s.wg.Wait()
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}

// runnerLoop pops jobs until the quit signal. A nil channel read never
// happens: push only sends admitted jobs.
func (s *Server) runnerLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case j := <-s.q.ch:
			s.obs.M().Gauge(obs.MServeQueueDepth).Set(int64(s.q.depth()))
			s.runJob(j)
		}
	}
}

// runJob executes one popped job through core.RouteContext and journals
// its terminal state (or requeues it under a drain checkpoint).
func (s *Server) runJob(j *Job) {
	defer s.q.release(j.bytes)

	// A DELETE that landed while the job sat in the queue already
	// journaled the cancelled state; nothing to run.
	if cur, ok := s.store.Get(j.ID); !ok || terminal(cur.State) {
		return
	}
	s.window("claim", j.ID)
	if st, err := s.store.SetState(j.ID, StateRunning, "", nil); err != nil {
		s.failUnjournaled(j.ID, err)
		return
	} else if st != StateRunning {
		return // a DELETE journaled the cancel since the check above
	}

	var ctx context.Context
	var cancel context.CancelFunc
	if j.Spec.TimeoutMs > 0 {
		// The deadline is a duration from the spec, not wall arithmetic —
		// the run's determinism contract never sees a clock reading.
		ctx, cancel = context.WithTimeout(context.Background(), time.Duration(j.Spec.TimeoutMs)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	s.window("register", j.ID)
	s.mu.Lock()
	s.running[j.ID] = &runningJob{cancel: cancel}
	s.mu.Unlock()
	if s.store.CancelRequested(j.ID) {
		cancel() // a DELETE found the job running before it was registered
	}
	defer func() {
		s.mu.Lock()
		delete(s.running, j.ID)
		s.mu.Unlock()
		cancel()
	}()

	sw := obs.StartStopwatch()
	res, runErr := s.execute(ctx, j)
	serviceMs := sw.Elapsed().Milliseconds()
	s.obs.M().Histogram(obs.MServeJobNs).
		Observe(sw.Elapsed().Nanoseconds())
	if res != nil {
		res.ServiceMs = serviceMs
	}

	var ce *core.CancelError
	switch {
	case runErr == nil:
		if s.finish(j.ID, StateDone, "", res) {
			s.obs.M().Counter(obs.MServeDone).Add(1)
		}
	case errors.As(runErr, &ce):
		s.mu.Lock()
		requeue := s.requeue
		s.mu.Unlock()
		if requeue {
			// Drain checkpoint: the run stopped cleanly at a coordinator
			// point; journal the job back to queued for the next start.
			s.finish(j.ID, StateQueued, "", nil)
			return
		}
		if s.store.CancelRequested(j.ID) {
			je := &JobError{ID: j.ID, State: StateCancelled, Stage: ce.Stage, Iter: ce.Iter, Cause: ce.Cause.Error()}
			if s.finish(j.ID, StateCancelled, je.Error(), res) {
				s.obs.M().Counter(obs.MServeCancelled).Add(1)
			}
			return
		}
		je := &JobError{ID: j.ID, State: StateFailed, Stage: ce.Stage, Iter: ce.Iter, Cause: ce.Cause.Error()}
		if s.finish(j.ID, StateFailed, je.Error(), res) {
			s.obs.M().Counter(obs.MServeFailed).Add(1)
		}
	default:
		if s.finish(j.ID, StateFailed, runErr.Error(), res) {
			s.obs.M().Counter(obs.MServeFailed).Add(1)
		}
	}
}

// window runs the test pause, if any, in a race window of runJob.
func (s *Server) window(name, id string) {
	if s.pause != nil {
		s.pause(name, id)
	}
}

// finish journals the state a job leaves its run in and reports whether
// the ledger took the record. A refused record fails the job in memory
// instead (see failUnjournaled).
func (s *Server) finish(id, state, errText string, res *JobResult) bool {
	if _, err := s.store.SetState(id, state, errText, res); err != nil {
		s.failUnjournaled(id, err)
		return false
	}
	return true
}

// failUnjournaled fails a job whose record the ledger refused, in memory
// only: status reports it failed with the journal error as its cause,
// and it counts once as failed. Its terminal state refuses every later
// transition, so no record of the job reaches disk after the refusal,
// and a restart replays it from its last journaled record — queued and
// recovered.
func (s *Server) failUnjournaled(id string, cause error) {
	je := &JobError{ID: id, State: StateFailed, Iter: -1, Cause: "journal: " + cause.Error()}
	if s.store.failInMemory(id, je.Error()) {
		s.obs.M().Counter(obs.MServeFailed).Add(1)
	}
}

// execute routes the job's design and, on full completion, writes its
// guides to disk BEFORE returning — the caller journals "done" only
// after this returns nil, so a journaled done record always has its
// guides artifact (the recovery proof leans on that ordering). The
// returned JobResult is non-nil whenever core produced a Result,
// including the partial result of a cancelled run.
func (s *Server) execute(ctx context.Context, j *Job) (*JobResult, error) {
	d, err := j.Spec.buildDesign()
	if err != nil {
		return nil, err
	}
	opt := j.Spec.options()
	// Jobs share the daemon's metrics registry and health tracker but
	// not its tracer (per-job lanes would collide across runners).
	opt.Obs = &obs.Observer{Metrics: s.obs.M(), Health: s.obs.H()}
	res, runErr := core.RouteContext(ctx, d, opt)
	if res == nil {
		return nil, runErr
	}
	jr := &JobResult{
		Wirelength: res.Report.Quality.Wirelength,
		Vias:       res.Report.Quality.Vias,
		Overflow:   res.Report.Quality.Shorts,
		Score:      res.Report.Score,
		Fault:      res.Report.Fault,
		FaultSites: res.FaultSites,
		Partial:    runErr != nil,
		RRRIters:   len(res.Report.RRR),
	}
	if runErr != nil {
		return jr, runErr
	}
	if err := guide.WriteFile(s.store.GuidePath(j.ID), res); err != nil {
		return jr, fmt.Errorf("serve: guides for %s: %w", j.ID, err)
	}
	return jr, nil
}

// retryAfterSeconds estimates when a rejected client should try again:
// the mean observed job service time (or the configured default before
// any job finished) times the number of jobs ahead of it per runner,
// clamped to [1s, 1h]. Wall-derived and advisory by construction — it
// shapes client politeness, never a routed result.
func (s *Server) retryAfterSeconds() int {
	h := s.obs.M().Histogram(obs.MServeJobNs)
	meanNs := float64(s.cfg.DefaultServiceEstimate.Nanoseconds())
	if n := h.Count(); n > 0 {
		meanNs = float64(h.Sum()) / float64(n)
	}
	s.q.mu.Lock()
	ahead := s.q.reserved
	s.q.mu.Unlock()
	waves := float64(ahead)/float64(s.cfg.Runners) + 1
	sec := int(meanNs * waves / float64(time.Second))
	if sec < 1 {
		sec = 1
	}
	if sec > 3600 {
		sec = 3600
	}
	return sec
}
