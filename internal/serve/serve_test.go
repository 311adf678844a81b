package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/guide"
)

// startTestServer boots a daemon on an ephemeral port over a fresh
// temp state dir and tears it down with the test.
func startTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func submitJob(t *testing.T, s *Server, spec JobSpec) string {
	t.Helper()
	id, code, body := trySubmit(t, s, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d body %s", code, body)
	}
	return id
}

func trySubmit(t *testing.T, s *Server, spec JobSpec) (id string, code int, body string) {
	t.Helper()
	raw, _ := json.Marshal(spec)
	resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusAccepted {
		var sr submitResponse
		if err := json.Unmarshal(b, &sr); err != nil {
			t.Fatalf("submit response: %v (%s)", err, b)
		}
		return sr.ID, resp.StatusCode, string(b)
	}
	return "", resp.StatusCode, string(b)
}

func getJob(t *testing.T, s *Server, id string) Job {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET job %s: status %d body %s", id, resp.StatusCode, b)
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("job decode: %v", err)
	}
	return j
}

// waitJob polls until the job's state satisfies pred.
func waitJob(t *testing.T, s *Server, id string, pred func(Job) bool, within time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		j := getJob(t, s, id)
		if pred(j) {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s (error %q)", id, j.State, j.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitTerminal(t *testing.T, s *Server, id string, within time.Duration) Job {
	t.Helper()
	return waitJob(t, s, id, func(j Job) bool { return terminal(j.State) }, within)
}

func fetchGuides(t *testing.T, s *Server, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + "/v1/jobs/" + id + "/guides")
	if err != nil {
		t.Fatalf("GET guides: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// cliGuideBytes routes the named benchmark exactly as the fastgr CLI
// would (same defaulting, same threshold scaling, same guide writer)
// and returns the guide bytes — the reference for the byte-identity
// contract.
func cliGuideBytes(t *testing.T, name string, scale float64) []byte {
	t.Helper()
	d, err := design.Generate(name, scale)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	opt := core.DefaultOptions(core.FastGRL)
	opt.T1 = core.ScaledThreshold(100, scale)
	opt.T2 = core.ScaledThreshold(500, scale)
	res, err := core.Route(d, opt)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	guides := guide.FromResult(res)
	if err := guide.Covers(res, guides); err != nil {
		t.Fatalf("guide contract: %v", err)
	}
	var buf bytes.Buffer
	if err := guide.Write(&buf, guides); err != nil {
		t.Fatalf("guide write: %v", err)
	}
	return buf.Bytes()
}

func TestJobLifecycleAndGuideByteIdentity(t *testing.T) {
	s := startTestServer(t, Config{})
	id := submitJob(t, s, JobSpec{Design: "18test5m", Scale: 0.005})
	j := waitTerminal(t, s, id, 60*time.Second)
	if j.State != StateDone {
		t.Fatalf("job ended %s: %s", j.State, j.Error)
	}
	if j.Result == nil || j.Result.Wirelength == 0 {
		t.Fatalf("done job has no result: %+v", j.Result)
	}
	if j.Result.Partial {
		t.Fatal("completed job marked partial")
	}

	code, got := fetchGuides(t, s, id)
	if code != http.StatusOK {
		t.Fatalf("guides status %d", code)
	}
	want := cliGuideBytes(t, "18test5m", 0.005)
	if !bytes.Equal(got, want) {
		t.Fatalf("daemon guides differ from CLI-path guides: %d vs %d bytes", len(got), len(want))
	}

	// The status endpoint must also serve uploaded designs.
	var buf bytes.Buffer
	d, _ := design.Generate("18test8m", 0.005)
	if err := design.Write(&buf, d); err != nil {
		t.Fatalf("design write: %v", err)
	}
	id2 := submitJob(t, s, JobSpec{DesignText: buf.String()})
	j2 := waitTerminal(t, s, id2, 60*time.Second)
	if j2.State != StateDone {
		t.Fatalf("uploaded-design job ended %s: %s", j2.State, j2.Error)
	}
}

func TestGuidesUnavailableBeforeDone(t *testing.T) {
	// One runner pinned by a slow job keeps the second job queued.
	s := startTestServer(t, Config{Runners: 1})
	blocker := submitJob(t, s, JobSpec{Design: "18test5m", Scale: 0.02})
	queued := submitJob(t, s, JobSpec{Design: "18test5m", Scale: 0.005})
	if code, body := fetchGuides(t, s, queued); code != http.StatusConflict {
		t.Fatalf("guides of queued job: status %d body %s", code, body)
	}
	waitTerminal(t, s, blocker, 120*time.Second)
	waitTerminal(t, s, queued, 120*time.Second)
}

func TestCancelQueuedJob(t *testing.T) {
	s := startTestServer(t, Config{Runners: 1})
	blocker := submitJob(t, s, JobSpec{Design: "18test5m", Scale: 0.02})
	target := submitJob(t, s, JobSpec{Design: "18test5m", Scale: 0.005})

	req, _ := http.NewRequest(http.MethodDelete, "http://"+s.Addr()+"/v1/jobs/"+target, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE queued job: status %d", resp.StatusCode)
	}
	j := waitTerminal(t, s, target, 10*time.Second)
	if j.State != StateCancelled {
		t.Fatalf("cancelled queued job ended %s", j.State)
	}
	// The runner must skip the tombstone without flapping it back to
	// running, and the blocker must be unaffected.
	if b := waitTerminal(t, s, blocker, 120*time.Second); b.State != StateDone {
		t.Fatalf("blocker ended %s: %s", b.State, b.Error)
	}
	if j2 := getJob(t, s, target); j2.State != StateCancelled {
		t.Fatalf("cancelled job resurrected to %s", j2.State)
	}
}

func TestCancelRunningJobKeepsPartialStats(t *testing.T) {
	s := startTestServer(t, Config{})
	id := submitJob(t, s, JobSpec{Design: "18test5m", Scale: 0.05})
	waitJob(t, s, id, func(j Job) bool { return j.State == StateRunning }, 30*time.Second)

	req, _ := http.NewRequest(http.MethodDelete, "http://"+s.Addr()+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	j := waitTerminal(t, s, id, 120*time.Second)
	if j.State != StateCancelled {
		t.Fatalf("job ended %s (error %q), want cancelled", j.State, j.Error)
	}
	if !strings.Contains(j.Error, "cancelled") {
		t.Fatalf("cancelled job error %q lacks the typed JobError text", j.Error)
	}
	if j.Result != nil && !j.Result.Partial {
		t.Fatal("cancelled job carries a result not marked partial")
	}
}

func TestDeadlineFailsWithTypedError(t *testing.T) {
	s := startTestServer(t, Config{})
	// 1ms expires before the first coordinator checkpoint on any design.
	id := submitJob(t, s, JobSpec{Design: "18test5m", Scale: 0.005, TimeoutMs: 1})
	j := waitTerminal(t, s, id, 60*time.Second)
	if j.State != StateFailed {
		t.Fatalf("deadline job ended %s, want failed", j.State)
	}
	if !strings.Contains(j.Error, "deadline") {
		t.Fatalf("deadline error %q does not name the deadline", j.Error)
	}
	if !strings.Contains(j.Error, "failed at ") {
		t.Fatalf("deadline error %q does not name the stage checkpoint", j.Error)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := startTestServer(t, Config{})
	for _, bad := range []JobSpec{
		{Design: "no-such-design"},
		{Design: "18test5m", Scale: 7},
		{Design: "18test5m", Scale: 0.005, Router: "warp"},
		{Design: "18test5m", Scale: 0.005, MazeAlg: "bfs"},
		{Design: "18test5m", Scale: 0.005, FaultProb: 2},
		{Design: "18test5m", Scale: 0.005, TimeoutMs: -1},
	} {
		if _, code, _ := trySubmit(t, s, bad); code != http.StatusBadRequest {
			t.Errorf("spec %+v: status %d, want 400", bad, code)
		}
	}
	resp, err := http.Get("http://" + s.Addr() + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", resp.StatusCode)
	}
}

// TestSubmitRefusesBadUploads: a malformed or invalid upload is refused at
// submit with the parser's line-numbered error and never journaled, and an
// upload whose estimate alone exceeds the queue budget is refused with 413
// and no Retry-After, since no amount of waiting admits it.
func TestSubmitRefusesBadUploads(t *testing.T) {
	s := startTestServer(t, Config{MaxBytes: 1 << 30})
	const hdr = "design x 10 10 3\ncaps 1 8 8\n"
	for _, c := range []struct{ text, want string }{
		{hdr + "net n0 3\npin 1 1 1\npin 5 5 1\nend\n", "line 6:"},
		{hdr + "net n0 2\npin 1 1 1x\npin 5 5 1\nend\n", "line 4:"},
		{hdr + "net n0 2\npin 1 1 1\npin 50 5 1\nend\n", "outside 10x10 grid"},
	} {
		_, code, body := trySubmit(t, s, JobSpec{DesignText: c.text})
		if code != http.StatusBadRequest || !strings.Contains(body, c.want) {
			t.Errorf("upload %q: status %d body %s, want 400 naming %q", c.text, code, body, c.want)
		}
	}
	if jobs := s.store.List(); len(jobs) != 0 {
		t.Fatalf("refused uploads were journaled: %v", ids(jobs))
	}

	huge := "design x 100000 100000 9\ncaps 1 8 8 8 8 8 8 8 8\nnet n0 2\npin 1 1 1\npin 5 5 1\nend\n"
	raw, _ := json.Marshal(JobSpec{DesignText: huge})
	resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || resp.Header.Get("Retry-After") != "" {
		t.Fatalf("oversized upload: status %d Retry-After %q body %s, want 413 without Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if jobs := s.store.List(); len(jobs) != 0 {
		t.Fatalf("oversized upload was journaled: %v", ids(jobs))
	}
	if st, err := os.Stat(filepath.Join(s.store.Dir(), journalName)); err == nil && st.Size() != 0 {
		t.Fatalf("journal holds %d bytes after refused submissions only", st.Size())
	}
}

func TestFaultAccountingInStatus(t *testing.T) {
	s := startTestServer(t, Config{})
	id := submitJob(t, s, JobSpec{Design: "18test5m", Scale: 0.005, FaultProb: 0.05, FaultSeed: 42})
	j := waitTerminal(t, s, id, 120*time.Second)
	if j.State != StateDone {
		t.Fatalf("faulted job ended %s: %s", j.State, j.Error)
	}
	if j.Result == nil || len(j.Result.FaultSites) == 0 {
		t.Fatalf("faulted job reports no per-site accounting: %+v", j.Result)
	}
	var injected, recovered, degraded int64
	for site, st := range j.Result.FaultSites {
		if st.Injected < 0 || st.Recovered < 0 || st.Degraded < 0 {
			t.Fatalf("site %s has negative counters: %+v", site, st)
		}
		injected += st.Injected
		recovered += st.Recovered
		degraded += st.Degraded
	}
	if injected == 0 {
		t.Fatal("fault_prob 0.05 injected nothing across the run")
	}
	if injected != recovered+degraded {
		t.Fatalf("containment accounting broken: injected %d != recovered %d + degraded %d",
			injected, recovered, degraded)
	}
}

func TestListJobs(t *testing.T) {
	s := startTestServer(t, Config{})
	a := submitJob(t, s, JobSpec{Design: "18test5m", Scale: 0.005})
	b := submitJob(t, s, JobSpec{Design: "18test5m", Scale: 0.005, RRR: intp(0)})
	waitTerminal(t, s, a, 60*time.Second)
	waitTerminal(t, s, b, 60*time.Second)
	resp, err := http.Get("http://" + s.Addr() + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET list: %v", err)
	}
	defer resp.Body.Close()
	var jobs []Job
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatalf("list decode: %v", err)
	}
	if len(jobs) != 2 || jobs[0].ID != a || jobs[1].ID != b {
		t.Fatalf("list = %v, want [%s %s] in submission order", ids(jobs), a, b)
	}
}

func ids(jobs []Job) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = fmt.Sprintf("%s:%s", j.ID, j.State)
	}
	return out
}

func intp(v int) *int { return &v }
