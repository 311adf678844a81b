package core

import (
	"time"

	"fastgr/internal/metrics"
	"fastgr/internal/obs"
)

// Run journal event payloads. The journal (Options.Journal) receives one
// "stage" event per pipeline stage boundary and one "iter" event per
// rip-up-and-reroute iteration, under every leaf plan. Like every other
// observability sink the journal is passive: payloads are read-only
// snapshots of state the run computes anyway, and
// timestamps live in the journal envelope (package obs), never here —
// core itself stays wall-clock free outside the sanctioned stopwatches.

// stageEvent marks a stage boundary.
type stageEvent struct {
	Stage  string `json:"stage"`
	Status string `json:"status"` // "start" or "done"
	// WallMs is the stage's wall-clock duration, on "done" events only.
	WallMs float64 `json:"wall_ms,omitempty"`
	// Score is the eq.-15 score after the stage committed, for the
	// stages that change routed state (pattern, rrr, stitch).
	Score float64 `json:"score,omitempty"`
	// PeakHeapBytes is the run's heap high-water as of this boundary.
	PeakHeapBytes uint64 `json:"peak_heap_bytes,omitempty"`
}

// iterEvent records one rip-up-and-reroute iteration.
type iterEvent struct {
	Iter       int     `json:"iter"`
	Nets       int     `json:"nets"`
	Expansions int64   `json:"expansions"`
	Wirelength int     `json:"wirelength"`
	Vias       int     `json:"vias"`
	Overflow   int     `json:"overflow"`
	Score      float64 `json:"score"`
	// Cost-cache accounting over this iteration (deltas of the registry
	// counters); HitRate is hits/(hits+misses), 0 when the cache saw no
	// reads or no registry is attached.
	CostHits    int64   `json:"cost_hits"`
	CostMisses  int64   `json:"cost_misses"`
	CostHitRate float64 `json:"cost_hit_rate"`
	// Containment outcomes for this iteration; all zero without faults.
	FailedNets      int `json:"failed_nets"`
	SkippedNets     int `json:"skipped_nets"`
	BudgetFallbacks int `json:"budget_fallbacks"`
	// PeakHeapBytes is the run's heap high-water after this iteration.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
}

// stageStart reports a stage to the health tracker and the journal.
func (r *runner) stageStart(name string) {
	r.opt.Obs.H().StageStart(name)
	r.opt.Journal.Emit("stage", stageEvent{Stage: name, Status: "start"})
}

// stageBeat reports stage progress (a batch or iteration completed).
func (r *runner) stageBeat(name string) {
	r.opt.Obs.H().StageBeat(name)
}

// stageDone closes a stage. score is the post-stage eq.-15 score, 0 for
// stages that do not change routed state (planning).
func (r *runner) stageDone(name string, wall time.Duration, score float64) {
	r.opt.Obs.H().StageDone(name)
	r.opt.Journal.Emit("stage", stageEvent{
		Stage:         name,
		Status:        "done",
		WallMs:        float64(wall) / float64(time.Millisecond),
		Score:         score,
		PeakHeapBytes: r.rep.PeakHeapBytes,
	})
}

// journalIter emits one iteration event and advances the cost-cache
// counter watermarks. iter numbers are each loop's index, so they are
// monotone within a run by construction.
func (r *runner) journalIter(iter int, st IterStats, q metrics.Quality) {
	if r.opt.Journal == nil {
		return
	}
	var hits, misses int64
	if m := r.opt.Obs.M(); m != nil {
		hits = m.Counter(obs.MCostHits).Value() - r.jHits
		misses = m.Counter(obs.MCostMisses).Value() - r.jMisses
		r.jHits += hits
		r.jMisses += misses
	}
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	r.opt.Journal.Emit("iter", iterEvent{
		Iter:            iter,
		Nets:            st.Nets,
		Expansions:      st.Expansions,
		Wirelength:      q.Wirelength,
		Vias:            q.Vias,
		Overflow:        q.Shorts,
		Score:           st.Score,
		CostHits:        hits,
		CostMisses:      misses,
		CostHitRate:     rate,
		FailedNets:      st.FailedNets,
		SkippedNets:     st.SkippedNets,
		BudgetFallbacks: st.BudgetFallbacks,
		PeakHeapBytes:   r.rep.PeakHeapBytes,
	})
}
