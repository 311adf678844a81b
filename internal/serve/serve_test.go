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
	"sync"
	"testing"
	"time"

	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/guide"
	"fastgr/internal/obs"
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

// TestJournaledMazeAlgReplays: journals written while the spec had
// maze_alg carry it on their submit records. Replay decodes leniently, so
// such a record still reopens, and the recovered job — journaled for
// Dijkstra, now routed with A*, which commits the same geometry — serves
// guides byte-identical to the CLI's.
func TestJournaledMazeAlgReplays(t *testing.T) {
	dir := t.TempDir()
	rec := `{"seq":1,"kind":"submit","id":"job-000001","spec":{"design":"18test5m","scale":0.005,` +
		`"router":"fastgrl","sort":"hpwl-asc","maze_alg":"dijkstra"}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	s := startTestServer(t, Config{Dir: dir, Runners: 1})
	if j := waitTerminal(t, s, "job-000001", 60*time.Second); j.State != StateDone || !j.Recovered {
		t.Fatalf("replayed job ended %s (recovered %v): %s", j.State, j.Recovered, j.Error)
	}
	code, got := fetchGuides(t, s, "job-000001")
	if code != http.StatusOK || !bytes.Equal(got, cliGuideBytes(t, "18test5m", 0.005)) {
		t.Fatalf("replayed job's guides (status %d, %d bytes) differ from the CLI's", code, len(got))
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

// TestRefusedTerminalRecordFailsJob: when the ledger refuses a running
// job's terminal record, status reports the job failed with the journal
// error, it counts once as failed, no refused record reaches the ledger
// once it is writable again, and a restart replays the job as queued.
func TestRefusedTerminalRecordFailsJob(t *testing.T) {
	dir := t.TempDir()
	s := startTestServer(t, Config{Dir: dir, Runners: 1})
	id := submitJob(t, s, JobSpec{Design: "18test5m", Scale: 0.05})
	waitJob(t, s, id, func(j Job) bool { return j.State == StateRunning }, 30*time.Second)

	// A non-empty directory where the ledger should be refuses every
	// append; the cancel then ends the run while it is refused.
	path := filepath.Join(dir, journalName)
	if err := os.Rename(path, path+".away"); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, "http://"+s.Addr()+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	j := waitTerminal(t, s, id, 120*time.Second)
	if j.State != StateFailed || !strings.Contains(j.Error, "journal") {
		t.Fatalf("job ended %s (error %q), want failed with the journal error", j.State, j.Error)
	}
	failed, cancelled := s.obs.M().Counter(obs.MServeFailed).Value(), s.obs.M().Counter(obs.MServeCancelled).Value()
	if failed != 1 || cancelled != 0 {
		t.Fatalf("failed/cancelled counters = %d/%d, want 1/0", failed, cancelled)
	}

	if err := os.RemoveAll(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".away", path); err != nil {
		t.Fatal(err)
	}
	next := submitJob(t, s, JobSpec{Design: "18test5m", Scale: 0.005})
	if j := waitTerminal(t, s, next, 60*time.Second); j.State != StateDone {
		t.Fatalf("job after the outage ended %s: %s", j.State, j.Error)
	}
	if j := getJob(t, s, id); j.State != StateFailed {
		t.Fatalf("refused job moved to %s", j.State)
	}
	s.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.Contains(line, id) && !strings.Contains(line, `"kind":"submit"`) &&
			!strings.Contains(line, `"state":"running"`) {
			t.Fatalf("a record refused or made after the outage reached the ledger: %s", line)
		}
	}
	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if j, _ := r.Get(id); j.State != StateQueued || !j.Recovered {
		t.Fatalf("replayed job is %s (recovered %v), want queued and recovered", j.State, j.Recovered)
	}
}

// TestRefusedCancelRecordKeepsJobQueued: a DELETE on a queued job whose
// cancelled record the ledger refuses answers 503 with the journal error
// and changes nothing — the job stays queued, carries no cancel flag and
// runs to done once the ledger takes records again.
func TestRefusedCancelRecordKeepsJobQueued(t *testing.T) {
	dir := t.TempDir()
	s := startTestServer(t, Config{Dir: dir, Runners: 1})
	first := submitJob(t, s, JobSpec{Design: "18test5m", Scale: 0.05})
	waitJob(t, s, first, func(j Job) bool { return j.State == StateRunning }, 30*time.Second)
	second := submitJob(t, s, JobSpec{Design: "18test5m", Scale: 0.005})

	path := filepath.Join(dir, journalName)
	if err := os.Rename(path, path+".away"); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, "http://"+s.Addr()+"/v1/jobs/"+second, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "journal") {
		t.Fatalf("refused cancel answered %d %s, want 503 with the journal error", resp.StatusCode, body)
	}
	if j := getJob(t, s, second); j.State != StateQueued {
		t.Fatalf("job with a refused cancel is %s, want queued", j.State)
	}
	if s.store.CancelRequested(second) {
		t.Fatal("a refused cancel left the cancel flag set")
	}

	if err := os.RemoveAll(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".away", path); err != nil {
		t.Fatal(err)
	}
	if j := waitTerminal(t, s, first, 120*time.Second); j.State != StateDone {
		t.Fatalf("first job ended %s: %s", j.State, j.Error)
	}
	if j := waitTerminal(t, s, second, 60*time.Second); j.State != StateDone {
		t.Fatalf("job with a refused cancel ended %s (%s), want done", j.State, j.Error)
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
		{Design: "18test5m", Scale: 0.005, FaultProb: 2},
		{Design: "18test5m", Scale: 0.005, TimeoutMs: -1},
	} {
		if _, code, _ := trySubmit(t, s, bad); code != http.StatusBadRequest {
			t.Errorf("spec %+v: status %d, want 400", bad, code)
		}
	}
	// maze_alg left the spec with Dijkstra as a production option: a body
	// still carrying it is refused as an unknown field.
	resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json",
		strings.NewReader(`{"design":"18test5m","scale":0.005,"maze_alg":"astar"}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "maze_alg") {
		t.Errorf("maze_alg body: status %d body %s, want 400 naming the field", resp.StatusCode, body)
	}
	resp, err = http.Get("http://" + s.Addr() + "/v1/jobs/job-999999")
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

// TestCancelRacesRunnerClaim lands a DELETE in each window where it
// races a runner's claim on a job: before the running record, and
// between that record and the job's registration as running. Either way
// the job must end cancelled and its run must never finish: no done
// count and no guides artifact. A job cancelled while still queued must
// not be run at all.
func TestCancelRacesRunnerClaim(t *testing.T) {
	for _, window := range []string{"claim", "register"} {
		t.Run(window, func(t *testing.T) {
			reg := obs.NewRegistry()
			s, err := New(Config{Dir: t.TempDir(), Runners: 1, Obs: &obs.Observer{Metrics: reg, Health: obs.NewHealth()}})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			var once sync.Once
			var mu sync.Mutex
			reached := map[string]bool{} // "id/window"
			s.pause = func(w, id string) {
				mu.Lock()
				reached[id+"/"+w] = true
				mu.Unlock()
				if w != window {
					return
				}
				once.Do(func() {
					req, _ := http.NewRequest(http.MethodDelete, "http://"+s.Addr()+"/v1/jobs/"+id, nil)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Errorf("DELETE: %v", err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusAccepted {
						t.Errorf("DELETE in the %s window: status %d", window, resp.StatusCode)
					}
				})
			}
			if err := s.Start("127.0.0.1:0"); err != nil {
				t.Fatalf("Start: %v", err)
			}
			t.Cleanup(func() { s.Close() })

			spec := JobSpec{Design: "18test5m", Scale: 0.005}
			id := submitJob(t, s, spec)
			if j := waitTerminal(t, s, id, 60*time.Second); j.State != StateCancelled {
				t.Fatalf("job ended %s (error %q), want cancelled", j.State, j.Error)
			}
			// One runner: the next job starts only after the first's run
			// returned, so its done record closes the first's run too.
			next := submitJob(t, s, spec)
			if j := waitTerminal(t, s, next, 60*time.Second); j.State != StateDone {
				t.Fatalf("second job ended %s: %s", j.State, j.Error)
			}
			if _, err := os.Stat(s.store.GuidePath(id)); !os.IsNotExist(err) {
				t.Errorf("cancelled job has a guides artifact (stat: %v)", err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for reg.Counter(obs.MServeDone).Value() != 1 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := reg.Counter(obs.MServeDone).Value(); got != 1 {
				t.Errorf("done count %d, want 1 (the second job only)", got)
			}
			// Whichever side journaled the cancel, it counts once.
			if got := reg.Counter(obs.MServeCancelled).Value(); got != 1 {
				t.Errorf("cancelled count %d, want 1", got)
			}
			mu.Lock()
			defer mu.Unlock()
			if window == "claim" && reached[id+"/register"] {
				t.Errorf("the runner went on to run a job cancelled while queued")
			}
		})
	}
}
