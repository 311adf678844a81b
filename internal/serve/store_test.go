package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"fastgr/internal/core"
	"fastgr/internal/fault"
)

// ledgerScript drives a store through a fixed script of submits and
// transitions: two jobs that finish done and failed, a transition a
// terminal job refuses, a cancel while queued, and a restart.
func ledgerScript(t *testing.T, dir string) {
	t.Helper()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rrr := 3
	a, err := s.Submit(JobSpec{Design: "18test5m", Scale: 0.005, Router: "fastgrh", RRR: &rrr}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(JobSpec{DesignText: "design tiny\n", Router: "cugr", TimeoutMs: 500}, 2048)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		id, state, errText string
		res                *JobResult
	}{
		{a.ID, StateRunning, "", nil},
		{b.ID, StateRunning, "", nil},
		{a.ID, StateDone, "", &JobResult{Wirelength: 1234, Vias: 56, Score: 1290.5, RRRIters: 3, ServiceMs: 42,
			Fault: core.FaultStats{FailedNets: 1}, FaultSites: map[string]fault.SiteStats{"maze": {Injected: 2, Recovered: 1}, "kernel": {Degraded: 1}}}},
		{b.ID, StateFailed, "job-000002 failed in rrr iter 1: boom", &JobResult{Partial: true, RRRIters: 1}},
		{a.ID, StateQueued, "", nil}, // refused: a is terminal
	}
	for _, st := range steps {
		if _, err := s.SetState(st.id, st.state, st.errText, st.res); err != nil {
			t.Fatal(err)
		}
	}
	c, err := s.Submit(JobSpec{Design: "18test8m", Scale: 0.01}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	s.RequestCancel(c.ID)
	// A restart continues seq and IDs from the replayed ledger.
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s2.Submit(JobSpec{Design: "18test5m", Scale: 0.003, Shards: 2}, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.SetState(d.ID, StateRunning, "", nil); err != nil {
		t.Fatal(err)
	}
}

// pinnedLedger is the jobs.jsonl that ledgerScript writes. Replay and
// every reader of the ledger parse these bytes: file name, record
// envelope, seq from 0 and job IDs from 1 stay as they are.
const pinnedLedger = `{"seq":0,"kind":"submit","id":"job-000001","spec":{"design":"18test5m","scale":0.005,"router":"fastgrh","rrr":3}}
{"seq":1,"kind":"submit","id":"job-000002","spec":{"design_text":"design tiny\n","router":"cugr","timeout_ms":500}}
{"seq":2,"kind":"state","id":"job-000001","state":"running"}
{"seq":3,"kind":"state","id":"job-000002","state":"running"}
{"seq":4,"kind":"state","id":"job-000001","state":"done","result":{"wirelength":1234,"vias":56,"overflow":0,"score":1290.5,"fault":{"FailedNets":1,"KernelFallbacks":0,"BudgetFallbacks":0},"fault_sites":{"kernel":{"injected":0,"recovered":0,"degraded":1,"retries":0},"maze":{"injected":2,"recovered":1,"degraded":0,"retries":0}},"rrr_iters":3,"service_ms":42}}
{"seq":5,"kind":"state","id":"job-000002","state":"failed","error":"job-000002 failed in rrr iter 1: boom","result":{"wirelength":0,"vias":0,"overflow":0,"score":0,"fault":{"FailedNets":0,"KernelFallbacks":0,"BudgetFallbacks":0},"partial":true,"rrr_iters":1,"service_ms":0}}
{"seq":6,"kind":"submit","id":"job-000003","spec":{"design":"18test8m","scale":0.01}}
{"seq":7,"kind":"state","id":"job-000003","state":"cancelled","error":"cancelled while queued"}
{"seq":8,"kind":"submit","id":"job-000004","spec":{"design":"18test5m","scale":0.003,"shards":2}}
{"seq":9,"kind":"state","id":"job-000004","state":"running"}
`

func TestLedgerBytesPinned(t *testing.T) {
	dir := t.TempDir()
	ledgerScript(t, dir)
	got, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte(pinnedLedger)) {
		t.Fatalf("ledger bytes drifted:\n%s\nwant:\n%s", got, pinnedLedger)
	}
}

// TestRefusedRecordLeavesNoTrace: a Submit or SetState whose journal
// append fails must leave nothing on disk, so the next accepted job —
// which reuses the refused job's ID — replays with its own spec, and a
// refused transition never replays.
func TestRefusedRecordLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Submit(JobSpec{Design: "first"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A non-empty directory where the ledger should be refuses every
	// append; moving the ledger back ends the outage.
	if err := os.Rename(path, path+".away"); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Design: "rejected"}, 1); err == nil {
		t.Fatal("Submit succeeded with the ledger unwritable")
	}
	if _, err := s.SetState(a.ID, StateRunning, "", nil); err == nil {
		t.Fatal("SetState succeeded with the ledger unwritable")
	}
	if err := os.RemoveAll(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".away", path); err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(JobSpec{Design: "accepted"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetState(a.ID, StateDone, "", nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("rejected")) || bytes.Contains(raw, []byte("running")) {
		t.Fatalf("a refused record reached the ledger:\n%s", raw)
	}
	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if j, ok := r.Get(b.ID); !ok || j.Spec.Design != "accepted" {
		t.Fatalf("replayed %s = %+v, want the accepted spec", b.ID, j.Spec)
	}
	if j, _ := r.Get(a.ID); j.State != StateDone {
		t.Fatalf("replayed %s is %s, want done", a.ID, j.State)
	}
	if n := len(r.List()); n != 2 {
		t.Fatalf("replay holds %d jobs, want 2", n)
	}
}
