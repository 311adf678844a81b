package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"fastgr/internal/design"
)

// pollCtx is a context whose Done channel reads closed from its n-th poll
// on. Every coordinator checkpoint polls exactly once, so n picks the
// checkpoint the run stops at.
type pollCtx struct {
	context.Context // Background: no deadline, no values
	n, polls        int
}

var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func (c *pollCtx) Done() <-chan struct{} {
	c.polls++
	if c.polls >= c.n {
		return closedDone
	}
	return nil // a nil channel never reads in a select: not yet cancelled
}

func (c *pollCtx) Err() error {
	if c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestCancelAtEveryCheckpoint pins checkpoint granularity. The one-leaf
// plan checkpoints before planning, before every pattern batch and at the
// top of every rip-up iteration; a cut plan's fanned-out pattern stage
// checkpoints once before it starts and once before the stitch. For every
// n, a run cancelled at the n-th poll must stop at the n-th checkpoint of
// that sequence and hand back a partial Result whose committed demand is
// exactly the demand of its routes.
func TestCancelAtEveryCheckpoint(t *testing.T) {
	d := design.MustGenerate("18test5m", testScale)
	for _, v := range []Variant{CUGR, FastGRH} {
		for _, shards := range []int{0, 2} {
			t.Run(fmt.Sprintf("%v/shards=%d", v, shards), func(t *testing.T) {
				opt := DefaultOptions(v)
				opt.T1, opt.T2 = 4, 40
				opt.Shards = shards
				done, err := Route(d, opt)
				if err != nil {
					t.Fatal(err)
				}
				want := checkpointSequence(opt, done.Report)
				for n := 1; ; n++ {
					ctx := &pollCtx{Context: context.Background(), n: n}
					res, err := RouteContext(ctx, d, opt)
					if n > len(want) {
						if err != nil || ctx.polls != len(want) {
							t.Fatalf("uncancelled run: err=%v after %d polls, want nil after %d", err, ctx.polls, len(want))
						}
						return
					}
					var ce *CancelError
					if !errors.As(err, &ce) || res == nil {
						t.Fatalf("n=%d: want a *CancelError with a partial result, got %v", n, err)
					}
					if got := (CancelError{Stage: ce.Stage, Iter: ce.Iter}); got != want[n-1] || ctx.polls != n {
						t.Fatalf("n=%d: stopped at %+v after %d polls, want %+v", n, got, ctx.polls, want[n-1])
					}
					checkDemandMatchesRoutes(t, res)
				}
			})
		}
	}
}

// checkpointSequence lists the checkpoints a completed run passed, in
// order, from its report.
func checkpointSequence(opt Options, rep Report) []CancelError {
	want := []CancelError{{Stage: "plan", Iter: -1}}
	if opt.Shards == 0 {
		for i := 0; i < rep.PatternBatches; i++ {
			want = append(want, CancelError{Stage: "pattern", Iter: -1})
		}
	} else {
		want = append(want, CancelError{Stage: "pattern", Iter: -1}, CancelError{Stage: "stitch", Iter: -1})
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
