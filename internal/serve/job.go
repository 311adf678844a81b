package serve

import (
	"fmt"
	"math"
	"strings"

	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/fault"
	"fastgr/internal/sched"
)

// Job states. A job is born queued, becomes running when a runner picks
// it up, and ends in exactly one of done, failed or cancelled. Journal
// replay maps running back to queued (the work was lost with the
// process), so after a restart every job is either terminal or queued.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// terminal reports whether a state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// JobSpec is the request body of POST /v1/jobs: the full option surface
// of the fastgr CLI, with the same defaults, so a design routed through
// the daemon produces guides byte-identical to the CLI's. Zero values
// mean "CLI default"; RRR is a pointer because 0 iterations is a
// meaningful request distinct from "use the default 3".
type JobSpec struct {
	// Design names a synthetic benchmark to generate (cmd/benchgen
	// -list); DesignText, when non-empty, is an uploaded design in the
	// design.Write text format and takes precedence.
	Design     string  `json:"design,omitempty"`
	Scale      float64 `json:"scale,omitempty"`
	DesignText string  `json:"design_text,omitempty"`

	Router      string  `json:"router,omitempty"` // cugr | fastgrl | fastgrh
	Sort        string  `json:"sort,omitempty"`
	RRR         *int    `json:"rrr,omitempty"`
	T1          int     `json:"t1,omitempty"`
	T2          int     `json:"t2,omitempty"`
	NoSelection bool    `json:"no_selection,omitempty"`
	Shards      int     `json:"shards,omitempty"`
	ExecWorkers int     `json:"exec_workers,omitempty"`
	MazeBudget  int64   `json:"maze_budget,omitempty"`
	FaultProb   float64 `json:"fault_prob,omitempty"`
	FaultSeed   int64   `json:"fault_seed,omitempty"`

	// TimeoutMs, when positive, is the job's routing deadline; a job
	// over it fails with a JobError naming the stage it died in.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// normalize fills CLI defaults into zero fields and validates the rest.
// An uploaded design is parsed here, so that a malformed one is refused at
// submit with the parser's line-numbered error; it is returned for the
// admission estimate (nil when the spec names a benchmark).
func (sp *JobSpec) normalize() (*design.Design, error) {
	var up *design.Design
	if sp.DesignText != "" {
		d, err := sp.buildDesign()
		if err != nil {
			return nil, fmt.Errorf("design_text: %w", err)
		}
		up = d
	} else {
		if sp.Design == "" {
			sp.Design = "18test5m"
		}
		if sp.Scale == 0 {
			sp.Scale = 0.01
		}
		if sp.Scale <= 0 || sp.Scale > 1 {
			return nil, fmt.Errorf("scale %v outside (0,1]", sp.Scale)
		}
		if _, err := design.SpecByName(sp.Design); err != nil {
			return nil, err
		}
	}
	if sp.Router == "" {
		sp.Router = "fastgrl"
	}
	if _, err := core.ParseVariant(sp.Router); err != nil {
		return nil, err
	}
	if sp.Sort == "" {
		sp.Sort = "hpwl-asc"
	}
	if _, ok := sched.ParseScheme(sp.Sort); !ok {
		return nil, fmt.Errorf("unknown sorting scheme %q", sp.Sort)
	}
	if sp.RRR != nil && *sp.RRR < 0 {
		return nil, fmt.Errorf("rrr %d is negative", *sp.RRR)
	}
	if sp.ExecWorkers < 0 {
		return nil, fmt.Errorf("exec_workers %d is negative", sp.ExecWorkers)
	}
	if sp.Shards < 0 || sp.Shards > core.MaxShards {
		return nil, fmt.Errorf("shards %d outside [0, %d]", sp.Shards, core.MaxShards)
	}
	if sp.FaultProb < 0 || sp.FaultProb > 1 {
		return nil, fmt.Errorf("fault_prob %v outside [0,1]", sp.FaultProb)
	}
	if sp.MazeBudget < 0 {
		return nil, fmt.Errorf("maze_budget %d is negative", sp.MazeBudget)
	}
	if sp.TimeoutMs < 0 {
		return nil, fmt.Errorf("timeout_ms %d is negative", sp.TimeoutMs)
	}
	return up, nil
}

// buildDesign materializes the job's design.
func (sp *JobSpec) buildDesign() (*design.Design, error) {
	if sp.DesignText != "" {
		return design.Read(strings.NewReader(sp.DesignText))
	}
	return design.Generate(sp.Design, sp.Scale)
}

// options resolves the spec into core.Options with exactly the fastgr
// CLI's defaulting — including the T1/T2 threshold scaling for
// generated designs — so the routed output matches the CLI bit for bit.
// The fault layer is armed under the CLI's rule too: -fault-prob > 0, or
// -fault-seed alone arming it silently.
func (sp *JobSpec) options() core.Options {
	variant, _ := core.ParseVariant(sp.Router)
	opt := core.DefaultOptions(variant)
	if sp.RRR != nil {
		opt.RRRIters = *sp.RRR
	}
	opt.SelectionOff = sp.NoSelection
	if sp.ExecWorkers > 0 {
		opt.ExecWorkers = sp.ExecWorkers
	}
	opt.Shards = sp.Shards
	if s, ok := sched.ParseScheme(sp.Sort); ok {
		opt.Scheme = s
	}
	if sp.T1 > 0 {
		opt.T1 = sp.T1
	} else if sp.DesignText == "" {
		opt.T1 = core.ScaledThreshold(100, sp.Scale)
	}
	if sp.T2 > 0 {
		opt.T2 = sp.T2
	} else if sp.DesignText == "" {
		opt.T2 = core.ScaledThreshold(500, sp.Scale)
	}
	opt.MazeBudget = sp.MazeBudget
	if sp.FaultProb > 0 || sp.FaultSeed != 0 {
		opt.Fault = &fault.Options{Seed: sp.FaultSeed, Probs: fault.UniformProbs(sp.FaultProb)}
	}
	return opt
}

// estimateBytes is the job's admission-control memory estimate: grid
// cost state plus per-net route state. A generated design's dimensions
// come from the benchmark table without generating it (the accept path
// must stay cheap); an upload's from up, its parsed design, and an upload
// that does not parse (replayed from an older journal) gets the floor.
// Advisory — admission compares these estimates against the queue budget;
// nothing enforces them at runtime.
func (sp *JobSpec) estimateBytes(up *design.Design) int64 {
	const floor = 1 << 20
	var cells, nets float64
	switch {
	case up != nil:
		cells = float64(up.GridW) * float64(up.GridH) * float64(up.NumLayers)
		nets = float64(len(up.Nets))
	case sp.DesignText != "":
		return floor
	default:
		spec, err := design.SpecByName(sp.Design)
		if err != nil {
			return floor
		}
		// Mirror design.Generate's scaling: grid side shrinks as
		// scale^0.42, net count linearly.
		side := math.Pow(sp.Scale, 0.42)
		cells = float64(spec.GridW) * side * float64(spec.GridH) * side * float64(spec.Layers)
		nets = float64(spec.Nets) * sp.Scale
	}
	// An upload's grid is unbounded: cap the estimate where it still
	// converts exactly, far above any budget.
	return int64(min(cells*48+nets*512, 1<<62)) + floor
}

// JobResult is the measurable outcome of a finished (or partially
// finished) job, embedded in the status JSON.
type JobResult struct {
	Wirelength int     `json:"wirelength"`
	Vias       int     `json:"vias"`
	Overflow   int     `json:"overflow"`
	Score      float64 `json:"score"`
	// Fault aggregates the run's containment outcomes; FaultSites is the
	// per-site accounting from fault.Snapshot, present only when the
	// spec armed the containment layer and at least one site counted.
	Fault      core.FaultStats            `json:"fault"`
	FaultSites map[string]fault.SiteStats `json:"fault_sites,omitempty"`
	// Partial marks a result captured at a cancellation or deadline
	// checkpoint: the stats cover every stage and iteration that
	// committed before the run stopped.
	Partial bool `json:"partial,omitempty"`
	// RRRIters is the number of rip-up iterations that committed.
	RRRIters int `json:"rrr_iters"`
	// ServiceMs is the job's wall-clock service time (running → terminal),
	// in milliseconds. Observational, like every wall reading.
	ServiceMs int64 `json:"service_ms"`
}

// Job is one submitted routing job. Handlers receive copies snapshotted
// under the store lock; the canonical state lives in the Store.
type Job struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`
	// State is one of the State* constants.
	State string `json:"state"`
	// Recovered marks a job requeued by journal replay after a restart.
	Recovered bool `json:"recovered,omitempty"`
	// Error is the terminal error text of a failed or cancelled job.
	Error  string     `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`

	// bytes is the admission estimate reserved in the queue budget,
	// released when the job leaves the queue/runner pipeline.
	bytes int64
	// cancelRequested distinguishes a DELETE-initiated abort from a
	// deadline when the run's context fires. Guarded by the store lock.
	cancelRequested bool
}

// JobError is the typed error a job ends with when its deadline fires
// or a cancel lands mid-run: which pipeline stage the run stopped in,
// and the iteration for rip-up checkpoints.
type JobError struct {
	ID    string `json:"id"`
	State string `json:"state"` // terminal state the job moved to
	Stage string `json:"stage,omitempty"`
	Iter  int    `json:"iter"` // -1 outside rip-up
	Cause string `json:"cause"`
}

func (e *JobError) Error() string {
	if e.Stage == "" {
		return fmt.Sprintf("serve: job %s %s: %s", e.ID, e.State, e.Cause)
	}
	if e.Iter >= 0 {
		return fmt.Sprintf("serve: job %s %s at %s iteration %d: %s", e.ID, e.State, e.Stage, e.Iter, e.Cause)
	}
	return fmt.Sprintf("serve: job %s %s at %s stage: %s", e.ID, e.State, e.Stage, e.Cause)
}
