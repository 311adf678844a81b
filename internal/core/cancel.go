package core

import (
	"context"
	"fmt"
)

// Cancellation. RouteContext threads a context through the pipeline,
// checked at coordinator points only — the single-threaded instants
// between parallel sections (a pattern batch boundary, leaf or boundary,
// and the top of a rip-up iteration). Workers never observe the
// context, so a run that completes is bit-identical whether or not a
// context was attached; a run that is cancelled stops at the next
// checkpoint with every committed route intact and the partial Report
// preserved in the returned Result.

// CancelError reports a run aborted at a coordinator checkpoint by its
// context (cancellation or deadline). The Result returned alongside it
// holds the partial report: every stage and iteration that committed
// before the checkpoint, with quality and totals folded over the routes
// committed so far.
type CancelError struct {
	// Stage is the pipeline stage whose checkpoint observed the
	// cancellation: "plan", "pattern" or "rrr".
	Stage string
	// Iter is the rip-up iteration about to start when the run stopped;
	// -1 outside the rip-up stage.
	Iter int
	// Cause is the context's error: context.Canceled or
	// context.DeadlineExceeded.
	Cause error
}

func (e *CancelError) Error() string {
	if e.Iter >= 0 {
		return fmt.Sprintf("core: run cancelled at %s iteration %d: %v", e.Stage, e.Iter, e.Cause)
	}
	return fmt.Sprintf("core: run cancelled at %s stage: %v", e.Stage, e.Cause)
}

func (e *CancelError) Unwrap() error { return e.Cause }

// checkpoint polls the run's context at a coordinator point. It never
// blocks: a live context costs one channel poll, and the nil context
// (Route without a context) costs one comparison, so attaching a
// context cannot perturb a completed run.
func (r *runner) checkpoint(stage string, iter int) error {
	if r.ctx == nil {
		return nil
	}
	select {
	case <-r.ctx.Done():
		return &CancelError{Stage: stage, Iter: iter, Cause: context.Cause(r.ctx)}
	default:
		return nil
	}
}
