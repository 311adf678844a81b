package opsrv

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/obs"
)

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// scrapeAll hits every endpoint once and returns the first problem, so
// the background scraper during a live run can report through a channel.
func scrapeAll(base string) error {
	for _, ep := range []string{"/metrics", "/healthz", "/tracez", "/debug/pprof/"} {
		resp, err := http.Get(base + ep)
		if err != nil {
			return fmt.Errorf("%s: %v", ep, err)
		}
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("%s: read: %v", ep, err)
		}
		// /healthz may legitimately be 503 mid-run on a loaded host;
		// every other endpoint must succeed.
		if ep != "/healthz" && resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d", ep, resp.StatusCode)
		}
	}
	return nil
}

// TestOpsServerLiveScrape runs the full router on a small 19test9m
// instance with the ops server armed and a scraper hammering every
// endpoint throughout the run, then checks each endpoint's content
// after the run completed.
func TestOpsServerLiveScrape(t *testing.T) {
	d := design.MustGenerate("19test9m", 0.004)
	o := &obs.Observer{
		Tracer:  obs.NewTracer(1<<14, 4),
		Metrics: obs.NewRegistry(),
		Health:  obs.NewHealth(),
	}
	s, err := Start("127.0.0.1:0", Config{Obs: o, StallAfter: time.Hour})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	done := make(chan struct{})
	scrapeErr := make(chan error, 1)
	go func() {
		defer close(scrapeErr)
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := scrapeAll(base); err != nil {
				scrapeErr <- err
				return
			}
		}
	}()

	opt := core.DefaultOptions(core.FastGRH)
	opt.T1, opt.T2 = 3, 20
	opt.ExecWorkers = 4
	opt.Obs = o
	res, err := core.Route(d, opt)
	close(done)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if res.Report.NetsToRipup == 0 {
		t.Fatalf("no rip-up work; live scrape exercised nothing")
	}
	if err, ok := <-scrapeErr; ok && err != nil {
		t.Fatalf("scrape during run: %v", err)
	}

	// /metrics: canonical namespace, counter suffixes, histograms.
	code, ctype, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if ctype != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics content type %q", ctype)
	}
	for _, want := range []string{
		"# TYPE fastgr_maze_searches_total counter",
		"# TYPE fastgr_rrr_iterations gauge",
		"# TYPE fastgr_maze_expansions histogram",
		`fastgr_maze_algorithm_expansions_bucket{algorithm="astar",le="+Inf"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /healthz: the pipeline stages reported liveness and finished.
	code, ctype, body = get(t, base+"/healthz")
	if code != http.StatusOK || ctype != "application/json" {
		t.Fatalf("/healthz status %d content type %q", code, ctype)
	}
	var health struct {
		Status string            `json:"status"`
		Stages []obs.StageHealth `json:"stages"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if health.Status != "ok" {
		t.Fatalf("/healthz status %q after a finished run", health.Status)
	}
	seen := map[string]obs.StageHealth{}
	for _, st := range health.Stages {
		seen[st.Name] = st
		if st.Running {
			t.Errorf("stage %s still running after the run", st.Name)
		}
	}
	for _, stage := range []string{"plan", "pattern", "rrr"} {
		if _, ok := seen[stage]; !ok {
			t.Errorf("/healthz missing stage %q: %s", stage, body)
		}
	}
	if seen["rrr"].Beats == 0 {
		t.Errorf("rrr stage reported no progress beats")
	}

	// /tracez: lanes plus aggregated recent spans.
	code, _, body = get(t, base+"/tracez")
	if code != http.StatusOK {
		t.Fatalf("/tracez status %d", code)
	}
	var tz struct {
		Lanes  []obs.LaneStatus `json:"lanes"`
		Recent []struct {
			Name  string `json:"name"`
			Count int    `json:"count"`
		} `json:"recent"`
		Recorded uint64 `json:"recorded"`
	}
	if err := json.Unmarshal([]byte(body), &tz); err != nil {
		t.Fatalf("/tracez not JSON: %v\n%s", err, body)
	}
	if len(tz.Lanes) != 5 { // 4 workers + stages lane
		t.Errorf("/tracez lanes = %d, want 5", len(tz.Lanes))
	}
	if tz.Recorded == 0 || len(tz.Recent) == 0 {
		t.Errorf("/tracez saw no spans: recorded=%d recent=%d", tz.Recorded, len(tz.Recent))
	}
}

// TestOpsServerDeterminism is the acceptance gate for -listen: a run
// with the ops server armed and a concurrent scraper must reproduce the
// observability-free run byte-for-byte on every paper-facing output.
func TestOpsServerDeterminism(t *testing.T) {
	d := design.MustGenerate("19test9m", 0.004)
	opt := core.DefaultOptions(core.FastGRH)
	opt.T1, opt.T2 = 3, 20
	opt.ExecWorkers = 4
	base, err := core.Route(d, opt)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	o := &obs.Observer{
		Tracer:  obs.NewTracer(1<<14, 4),
		Metrics: obs.NewRegistry(),
		Health:  obs.NewHealth(),
	}
	s, err := Start("127.0.0.1:0", Config{Obs: o})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer s.Close()
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			scrapeAll("http://" + s.Addr())
		}
	}()
	served := opt
	served.Obs = o
	res, err := core.Route(d, served)
	close(done)
	if err != nil {
		t.Fatalf("served run: %v", err)
	}

	a, b := base.Report, res.Report
	if a.Quality != b.Quality || a.Score != b.Score {
		t.Errorf("ops server changed quality:\n%+v\nvs\n%+v", a.Quality, b.Quality)
	}
	if a.Times.Pattern != b.Times.Pattern || a.Times.Maze != b.Times.Maze ||
		a.Times.Total != b.Times.Total {
		t.Errorf("ops server changed modeled times")
	}
	if a.NetsToRipup != b.NetsToRipup || !reflect.DeepEqual(a.RRR, b.RRR) {
		t.Errorf("ops server changed RRR statistics:\n%+v\nvs\n%+v", a.RRR, b.RRR)
	}
	for _, n := range d.Nets {
		ra, rb := base.Routes[n.ID], res.Routes[n.ID]
		if (ra == nil) != (rb == nil) ||
			(ra != nil && !slices.Equal(ra.Edges(), rb.Edges())) {
			t.Fatalf("ops server changed net %s geometry", n.Name)
		}
	}
}

// TestOpsServerStall pins the 503 contract: a running stage with no
// progress inside the window flips /healthz to stalled.
func TestOpsServerStall(t *testing.T) {
	h := obs.NewHealth()
	o := &obs.Observer{Health: h}
	s, err := Start("127.0.0.1:0", Config{Obs: o, StallAfter: time.Nanosecond})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer s.Close()
	h.StageStart("rrr")
	time.Sleep(10 * time.Millisecond)
	code, _, body := get(t, "http://"+s.Addr()+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("want 503, got %d: %s", code, body)
	}
	if !strings.Contains(body, `"stalled":["rrr"]`) {
		t.Fatalf("stalled stage not named: %s", body)
	}
	h.StageDone("rrr")
	if code, _, _ := get(t, "http://"+s.Addr()+"/healthz"); code != http.StatusOK {
		t.Fatalf("done stage still stalled: %d", code)
	}
}

// TestOpsServerEmpty pins the zero-Config degradation: all endpoints
// serve well-formed empty responses.
func TestOpsServerEmpty(t *testing.T) {
	s, err := Start("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer s.Close()
	base := "http://" + s.Addr()
	if code, _, body := get(t, base+"/metrics"); code != http.StatusOK || body != "" {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	code, _, body := get(t, base+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/healthz: %d %s", code, body)
	}
	if code, _, _ := get(t, base+"/tracez"); code != http.StatusOK {
		t.Fatalf("/tracez: %d", code)
	}
	if s.Addr() == "" {
		t.Fatalf("no bound address")
	}
	var nils *Server
	if nils.Addr() != "" || nils.Close() != nil {
		t.Fatalf("nil server not inert")
	}
}
