package obs

import (
	"sync"
	"time"
)

// Health tracks stage-level liveness for the ops server's /healthz
// endpoint: each pipeline stage reports when it starts, each time it
// makes forward progress (a batch committed, an iteration finished) and
// when it ends, and a scrape reads back how long ago each running stage
// last moved. Like every obs sink it is strictly passive and nil-safe:
// the nil *Health is the disabled tracker, and nothing a stage reports
// here ever feeds routed geometry or a reported metric.
//
// Beats arrive from every run sharing the tracker (a daemon's
// concurrent jobs), so the tracker is mutex-guarded, and a stage counts
// the runs inside it: it reads running while any is. The lock is taken
// once per beat — stage and iteration cadence, never per net — which
// keeps it far off the hot path.
type Health struct {
	mu     sync.Mutex
	now    func() time.Time // injectable clock for deterministic tests
	order  []string         // stage names in first-seen order
	stages map[string]*stageState
}

type stageState struct {
	running int64 // runs inside the stage
	starts  int64
	beats   int64
	last    time.Time // last progress instant (start, beat or done)
}

// StageHealth is one stage's liveness snapshot. SinceProgress is
// computed against the tracker's clock at snapshot time, so consumers
// (the /healthz handler) need no wall-clock access of their own.
type StageHealth struct {
	Name    string `json:"name"`
	Running bool   `json:"running"`
	// Starts counts StageStart calls — a stage that runs once per
	// routing run starts once; per-iteration stages may restart.
	Starts int64 `json:"starts"`
	// Beats counts forward-progress reports since the first start.
	Beats int64 `json:"beats"`
	// SinceProgress is the time since the stage last reported any
	// lifecycle event.
	SinceProgress time.Duration `json:"since_progress_ns"`
}

// NewHealth returns an empty health tracker.
func NewHealth() *Health {
	return &Health{now: time.Now, stages: map[string]*stageState{}}
}

// setClock pins the clock for deterministic tests.
func (h *Health) setClock(now func() time.Time) { h.now = now }

func (h *Health) touch(name string) *stageState {
	s := h.stages[name]
	if s == nil {
		s = &stageState{}
		h.stages[name] = s
		h.order = append(h.order, name)
	}
	s.last = h.now()
	return s
}

// StageStart enters one run into the stage and beats it.
func (h *Health) StageStart(name string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.touch(name)
	s.running++
	s.starts++
}

// StageBeat reports forward progress on a stage. Beating a stage no run
// is inside records it running anyway, so a missed StageStart degrades
// to a slightly lossy report rather than a lost stage.
func (h *Health) StageBeat(name string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.touch(name)
	s.running = max(s.running, 1)
	s.beats++
}

// StageDone takes one run out of the stage. Every run that starts a
// stage must close it, on every exit: the router does so with one
// deferred close.
func (h *Health) StageDone(name string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.touch(name)
	s.running = max(s.running-1, 0)
}

// Stages returns every known stage in first-seen order with its
// progress age as of now. A nil tracker returns nil.
func (h *Health) Stages() []StageHealth {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	out := make([]StageHealth, 0, len(h.order))
	for _, name := range h.order {
		s := h.stages[name]
		out = append(out, StageHealth{
			Name:          name,
			Running:       s.running > 0,
			Starts:        s.starts,
			Beats:         s.beats,
			SinceProgress: now.Sub(s.last),
		})
	}
	return out
}

// Stalled returns the stages still marked running whose last progress
// is older than window. A zero or negative window means no stage is
// ever considered stalled (liveness is then report-only).
func (h *Health) Stalled(window time.Duration) []StageHealth {
	if h == nil || window <= 0 {
		return nil
	}
	var out []StageHealth
	for _, s := range h.Stages() {
		if s.Running && s.SinceProgress > window {
			out = append(out, s)
		}
	}
	return out
}
