package serve

import (
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestOverloadBackpressureDrainAndLeaks is the overload hygiene proof:
// saturate the admission queue, assert 429s carry a sane Retry-After,
// cancel half the outstanding jobs, drain the server, and verify the
// goroutine count settles back to the pre-server baseline — the accept
// loop, runners and per-connection handlers all joined.
func TestOverloadBackpressureDrainAndLeaks(t *testing.T) {
	settle := func() int {
		runtime.GC()
		n := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			time.Sleep(10 * time.Millisecond)
			if m := runtime.NumGoroutine(); m >= n {
				return m
			} else {
				n = m
			}
		}
		return n
	}
	base := settle()

	s := startTestServer(t, Config{Runners: 1, QueueCap: 3})

	// One slow blocker pins the single runner; two more fill the queue
	// to its cap (queued + running <= 3).
	blocker := submitJob(t, s, JobSpec{Design: "18test5m", Scale: 0.04})
	queued := []string{
		submitJob(t, s, JobSpec{Design: "18test5m", Scale: 0.005}),
		submitJob(t, s, JobSpec{Design: "18test5m", Scale: 0.005}),
	}

	// The queue is full: further submissions bounce with 429 and a
	// Retry-After in [1, 3600], never blocking the accept loop.
	for i := 0; i < 4; i++ {
		id, code, body := trySubmit(t, s, JobSpec{Design: "18test5m", Scale: 0.005})
		if code != http.StatusTooManyRequests {
			t.Fatalf("submit %d into full queue: status %d (id %q) body %s", i, code, id, body)
		}
	}
	retry := rejectAndInspect(t, s)
	ra, err := strconv.Atoi(retry)
	if err != nil || ra < 1 || ra > 3600 {
		t.Fatalf("Retry-After %q outside [1, 3600]", retry)
	}

	// Cancel half of what's outstanding: one queued job (journaled
	// tombstone the runner must skip) and the running blocker (context
	// cancellation at a coordinator checkpoint).
	for _, id := range []string{queued[0], blocker} {
		dreq, _ := http.NewRequest(http.MethodDelete, "http://"+s.Addr()+"/v1/jobs/"+id, nil)
		dresp, err := http.DefaultClient.Do(dreq)
		if err != nil {
			t.Fatalf("DELETE %s: %v", id, err)
		}
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusAccepted {
			t.Fatalf("DELETE %s: status %d", id, dresp.StatusCode)
		}
	}
	if j := waitTerminal(t, s, queued[0], 30*time.Second); j.State != StateCancelled {
		t.Fatalf("cancelled queued job ended %s", j.State)
	}
	if j := waitTerminal(t, s, blocker, 120*time.Second); j.State != StateCancelled && j.State != StateDone {
		// done is reachable only if the route finished before the cancel
		// checkpoint fired; either way the job must terminate.
		t.Fatalf("cancelled blocker ended %s: %s", j.State, j.Error)
	}
	// The surviving queued job must still run to completion.
	if j := waitTerminal(t, s, queued[1], 120*time.Second); j.State != StateDone {
		t.Fatalf("surviving job ended %s: %s", j.State, j.Error)
	}

	// After the backlog cleared, admission opens again.
	late := submitJob(t, s, JobSpec{Design: "18test5m", Scale: 0.005, RRR: intp(0)})
	waitTerminal(t, s, late, 60*time.Second)

	// Drain within a generous budget — everything is idle, so this is
	// the clean path: runners join, listener closes.
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := settle(); n <= base {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before server, %d after drain", base, n)
		}
	}
}

// rejectAndInspect submits into the (known-full) queue and returns the
// Retry-After header of the 429.
func rejectAndInspect(t *testing.T, s *Server) string {
	t.Helper()
	resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json",
		strings.NewReader(`{"design":"18test5m","scale":0.01}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	return resp.Header.Get("Retry-After")
}

// TestDrainRejectsNewWork pins the 503-on-drain contract and that Drain
// checkpoints a straggler back to queued when the budget expires.
func TestDrainRejectsNewWork(t *testing.T) {
	s := startTestServer(t, Config{Runners: 1})
	blocker := submitJob(t, s, JobSpec{Design: "18test5m", Scale: 0.05})
	waitJob(t, s, blocker, func(j Job) bool { return j.State == StateRunning }, 30*time.Second)

	done := make(chan error, 1)
	go func() { done <- s.Drain(500 * time.Millisecond) }()

	// Admission must flip to 503 as soon as draining starts; poll since
	// Drain runs concurrently. A transport error means the listener
	// already closed mid-poll — keep trying until the deadline, the 503
	// window is the whole drain budget.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json",
			strings.NewReader(`{"design":"18test5m","scale":0.005}`))
		code := 0
		if err == nil {
			code = resp.StatusCode
			resp.Body.Close()
			if code == http.StatusServiceUnavailable {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining server never returned 503 (last status %d, err %v)", code, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// The budget (0.5s) expires inside the first rip-up iteration of a
	// 0.05-scale route (~3s plain, three ~1s iterations, far more under
	// -race), so the next checkpoint catches it: the blocker must have
	// been checkpointed back to queued for the next start. A budget that
	// lets the run reach its last iteration would let it finish instead.
	st, err := OpenStore(s.store.Dir())
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	j, ok := st.Get(blocker)
	if !ok {
		t.Fatalf("blocker vanished from the journal")
	}
	if j.State != StateQueued || !j.Recovered {
		t.Fatalf("drained straggler is %s (recovered %v), want queued+recovered", j.State, j.Recovered)
	}
}
