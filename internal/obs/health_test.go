package obs

import (
	"testing"
	"time"
)

func TestHealthLifecycle(t *testing.T) {
	now := time.Unix(1000, 0)
	h := NewHealth()
	h.setClock(func() time.Time { return now })

	h.StageStart("plan")
	now = now.Add(2 * time.Second)
	h.StageDone("plan")
	h.StageStart("rrr")
	h.StageBeat("rrr")
	now = now.Add(30 * time.Second)

	st := h.Stages()
	if len(st) != 2 {
		t.Fatalf("want 2 stages, got %+v", st)
	}
	if st[0].Name != "plan" || st[1].Name != "rrr" {
		t.Fatalf("stage order not first-seen: %+v", st)
	}
	plan, rrr := st[0], st[1]
	if plan.Running || plan.Starts != 1 {
		t.Fatalf("plan: %+v", plan)
	}
	if plan.SinceProgress != 30*time.Second {
		t.Fatalf("plan age: %v", plan.SinceProgress)
	}
	if !rrr.Running || rrr.Beats != 1 || rrr.SinceProgress != 30*time.Second {
		t.Fatalf("rrr: %+v", rrr)
	}

	if got := h.Stalled(0); got != nil {
		t.Fatalf("window 0 must disable stall detection, got %+v", got)
	}
	stalled := h.Stalled(10 * time.Second)
	if len(stalled) != 1 || stalled[0].Name != "rrr" {
		t.Fatalf("want rrr stalled, got %+v", stalled)
	}
	h.StageBeat("rrr")
	if got := h.Stalled(10 * time.Second); len(got) != 0 {
		t.Fatalf("beat did not clear the stall: %+v", got)
	}
}

func TestHealthNilSafe(t *testing.T) {
	var h *Health
	h.StageStart("x")
	h.StageBeat("x")
	h.StageDone("x")
	if h.Stages() != nil || h.Stalled(time.Second) != nil {
		t.Fatalf("nil health not inert")
	}
	var o *Observer
	if o.H() != nil {
		t.Fatalf("nil observer health not nil")
	}
}

// TestHealthBeatWithoutStart pins the lossy-degrade behavior: a beat on
// an unknown stage records it rather than dropping it.
func TestHealthBeatWithoutStart(t *testing.T) {
	h := NewHealth()
	h.StageBeat("mystery")
	st := h.Stages()
	if len(st) != 1 || !st[0].Running || st[0].Beats != 1 || st[0].Starts != 0 {
		t.Fatalf("got %+v", st)
	}
}

// TestHealthSharedStage: runs sharing a tracker (a daemon's concurrent
// jobs) each hold a stage open; one leaving it must not close it for the
// other.
func TestHealthSharedStage(t *testing.T) {
	h := NewHealth()
	h.StageStart("rrr") // run A
	h.StageStart("rrr") // run B
	h.StageDone("rrr")  // B leaves; A is still inside
	if st := h.Stages(); len(st) != 1 || !st[0].Running || st[0].Starts != 2 {
		t.Fatalf("rrr after one of two runs left it: %+v", st)
	}
	h.StageDone("rrr")
	h.StageDone("rrr") // an unmatched close must not go below zero
	h.StageStart("rrr")
	if st := h.Stages(); !st[0].Running {
		t.Fatalf("rrr not running after a fresh start: %+v", st)
	}
}
