package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/fault"
	"fastgr/internal/obs"
)

// pollCtx is a context whose Done channel reads closed from its n-th poll
// on. Every checkpoint polls exactly once, so n picks the checkpoint the
// run stops at. Only the coordinator polls; the guard keeps the count
// race-clean should a worker ever poll.
type pollCtx struct {
	context.Context // Background: no deadline, no values
	n               int

	mu    sync.Mutex
	polls int
}

var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func (c *pollCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.polls++
	if c.polls >= c.n {
		return closedDone
	}
	return nil // a nil channel never reads in a select: not yet cancelled
}

func (c *pollCtx) Err() error {
	if c.count() >= c.n {
		return context.Canceled
	}
	return nil
}

func (c *pollCtx) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.polls
}

// TestCancelAtEveryCheckpoint pins checkpoint granularity. Both plans
// checkpoint before planning, before every pattern batch — every leaf's,
// then a cut plan's boundary batches — and at the top of every rip-up
// iteration. For every n, a run cancelled at the n-th poll must stop at
// the n-th checkpoint of that sequence, after exactly n polls at any
// worker count (only the coordinator polls), and hand back a partial
// Result whose committed demand is exactly the demand of its routes.
func TestCancelAtEveryCheckpoint(t *testing.T) {
	d := design.MustGenerate("18test5m", testScale)
	for _, c := range []struct {
		v               Variant
		shards, workers int
	}{
		{CUGR, 0, 1}, {CUGR, 2, 1}, {FastGRH, 0, 1}, {FastGRH, 2, 1},
		{FastGRH, 2, 4}, // workers fanned out under a polling coordinator
	} {
		name := fmt.Sprintf("%v/shards=%d", c.v, c.shards)
		if c.workers > 1 {
			name += fmt.Sprintf("/workers=%d", c.workers)
		}
		t.Run(name, func(t *testing.T) {
			opt := DefaultOptions(c.v)
			opt.T1, opt.T2 = 4, 40
			opt.Shards = c.shards
			opt.ExecWorkers = c.workers
			done, err := Route(d, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := checkpointSequence(opt, done.Report)
			for n := 1; ; n++ {
				ctx := &pollCtx{Context: context.Background(), n: n}
				res, err := RouteContext(ctx, d, opt)
				polls := ctx.count()
				if n > len(want) {
					if err != nil || polls != len(want) {
						t.Fatalf("uncancelled run: err=%v after %d polls, want nil after %d", err, polls, len(want))
					}
					return
				}
				var ce *CancelError
				if !errors.As(err, &ce) || res == nil {
					t.Fatalf("n=%d: want a *CancelError with a partial result, got %v", n, err)
				}
				if got := (CancelError{Stage: ce.Stage, Iter: ce.Iter}); got != want[n-1] || polls != n {
					t.Fatalf("n=%d: stopped at %+v after %d polls, want %+v", n, got, polls, want[n-1])
				}
				checkDemandMatchesRoutes(t, res)
			}
		})
	}
}

// checkpointSequence lists the checkpoints a completed run passed, in
// order, from its report.
func checkpointSequence(opt Options, rep Report) []CancelError {
	want := []CancelError{{Stage: "plan", Iter: -1}}
	for i := 0; i < rep.PatternBatches; i++ {
		want = append(want, CancelError{Stage: "pattern", Iter: -1})
	}
	iters := len(rep.RRR)
	if iters < opt.RRRIters {
		iters++ // the iteration that found nothing left to rip up
	}
	for i := 0; i < iters; i++ {
		want = append(want, CancelError{Stage: "rrr", Iter: i})
	}
	return want
}

// TestStoppedRunClosesItsStage: a run that stops inside a stage — a
// plan-site failure, a cancellation at a pattern checkpoint — must close
// that stage, or a health tracker shared with later runs (the daemon's)
// reports it running forever and stall detection fails a healthy server.
func TestStoppedRunClosesItsStage(t *testing.T) {
	d := design.MustGenerate("18test5m", testScale)
	h := obs.NewHealth()
	opt := DefaultOptions(CUGR)
	opt.T1, opt.T2 = 4, 40
	opt.Obs = &obs.Observer{Health: h}
	noneRunning := func(after string) {
		t.Helper()
		for _, s := range h.Stages() {
			if s.Running {
				t.Fatalf("after %s: stage %s still running (%+v)", after, s.Name, h.Stages())
			}
		}
	}

	opt.Fault = &fault.Options{Seed: 1, Probs: map[string]float64{fault.SitePlan: 1}}
	var we *fault.WorkError
	if _, err := Route(d, opt); !errors.As(err, &we) || we.Site != fault.SitePlan {
		t.Fatalf("want a plan-site WorkError, got %v", err)
	}
	noneRunning("a plan-site failure")

	opt.Fault = nil
	var ce *CancelError
	if _, err := RouteContext(&pollCtx{Context: context.Background(), n: 2}, d, opt); !errors.As(err, &ce) || ce.Stage != "pattern" {
		t.Fatalf("want a cancel at the first pattern checkpoint, got %v", err)
	}
	noneRunning("a cancel inside the pattern stage")
}
