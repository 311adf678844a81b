package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fastgr/internal/obs"
)

// TestCrashRecoveryAtEveryJournalPrefix is the crash-safety proof: run
// a workload to completion, then simulate a process killed at every
// possible journal prefix — every line prefix, and every byte prefix
// that tears a record, since a crash mid-append leaves some prefix of
// the record stream plus at worst a torn tail — and assert each prefix
// reopens into a consistent ledger of its complete records: every
// submitted job present exactly once, every job either terminal or
// queued-for-recovery, never lost, never duplicated.
//
// Then it restarts a full daemon from a mid-flight prefix (killed with
// one job done and one running) and proves end-to-end recovery: the
// running job re-executes, the finished job serves its guides from disk
// without re-running, and every guide fetched through the recovered
// daemon is byte-identical to the pre-crash bytes — which
// TestJobLifecycleAndGuideByteIdentity separately pins to the fastgr
// CLI's output.
func TestCrashRecoveryAtEveryJournalPrefix(t *testing.T) {
	dir := t.TempDir()

	// Phase 1: a full workload. Distinct designs so re-execution has to
	// get each one right, small scales so the sweep stays fast.
	specs := []JobSpec{
		{Design: "18test5m", Scale: 0.005},
		{Design: "18test8m", Scale: 0.005},
		{Design: "18test5m", Scale: 0.0075, Router: "fastgrh"},
	}
	s := startTestServer(t, Config{Dir: dir, Runners: 1})
	ids := make([]string, len(specs))
	for i, sp := range specs {
		ids[i] = submitJob(t, s, sp)
	}
	wantGuides := map[string][]byte{}
	for _, id := range ids {
		if j := waitTerminal(t, s, id, 120*time.Second); j.State != StateDone {
			t.Fatalf("job %s ended %s: %s", id, j.State, j.Error)
		}
		code, b := fetchGuides(t, s, id)
		if code != http.StatusOK {
			t.Fatalf("guides %s: status %d", id, code)
		}
		wantGuides[id] = b
	}
	if err := s.Drain(time.Minute); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	raw, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	lines := bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n"))
	if len(lines) < 3*len(specs) {
		t.Fatalf("journal has %d records, want at least %d (submit+running+done per job)", len(lines), 3*len(specs))
	}

	// Track, per prefix, what a correct ledger must contain.
	type expect struct {
		state   string
		hasDone bool
	}
	// Phase 2: every byte prefix must reopen consistently, as the ledger
	// of its k complete lines; b at a line boundary is a line prefix.
	midPrefix := -1
	for b := 0; b <= len(raw); b++ {
		k := bytes.Count(raw[:b], []byte{'\n'})
		torn := b > 0 && raw[b-1] != '\n'
		want := map[string]*expect{}
		var order []string
		for _, line := range lines[:k] {
			var rec journalRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("prefix %d: bad journal line: %v", b, err)
			}
			switch rec.Kind {
			case "submit":
				if want[rec.ID] != nil {
					t.Fatalf("prefix %d: duplicate submit for %s in journal", b, rec.ID)
				}
				want[rec.ID] = &expect{state: StateQueued}
				order = append(order, rec.ID)
			case "state":
				want[rec.ID].state = rec.State
				if rec.State == StateDone {
					want[rec.ID].hasDone = true
				}
			}
		}

		pdir := t.TempDir()
		if b > 0 {
			if err := os.WriteFile(filepath.Join(pdir, journalName), raw[:b], 0o644); err != nil {
				t.Fatalf("prefix %d: write: %v", b, err)
			}
		}
		// A real crash that journaled "done" necessarily wrote the guides
		// first (runJob's write ordering), so the simulation copies them.
		for id, e := range want {
			if e.hasDone {
				g, err := os.ReadFile(filepath.Join(dir, id+".guides"))
				if err != nil {
					t.Fatalf("prefix %d: source guides for %s: %v", b, id, err)
				}
				if err := os.WriteFile(filepath.Join(pdir, id+".guides"), g, 0o644); err != nil {
					t.Fatalf("prefix %d: copy guides: %v", b, err)
				}
			}
		}

		st, err := OpenStore(pdir)
		if err != nil {
			t.Fatalf("prefix %d: OpenStore: %v", b, err)
		}
		if torn {
			// Replay cut the torn record off, so appends start a line.
			got, err := os.ReadFile(filepath.Join(pdir, journalName))
			if err != nil || !bytes.Equal(got, raw[:bytes.LastIndexByte(raw[:b], '\n')+1]) {
				t.Fatalf("prefix %d: torn tail left on disk (err %v)", b, err)
			}
		}
		jobs := st.List()
		if len(jobs) != len(order) {
			t.Fatalf("prefix %d: %d jobs in store, %d submitted — lost or duplicated", b, len(jobs), len(order))
		}
		seen := map[string]bool{}
		for _, j := range jobs {
			if seen[j.ID] {
				t.Fatalf("prefix %d: job %s duplicated", b, j.ID)
			}
			seen[j.ID] = true
			e := want[j.ID]
			if e == nil {
				t.Fatalf("prefix %d: job %s appeared from nowhere", b, j.ID)
			}
			switch {
			case terminal(e.state):
				if j.State != e.state {
					t.Fatalf("prefix %d: job %s replayed to %s, journal says %s", b, j.ID, j.State, e.state)
				}
			default:
				// queued or running at the crash: must come back queued
				// and flagged for requeue.
				if j.State != StateQueued || !j.Recovered {
					t.Fatalf("prefix %d: in-flight job %s replayed to %s (recovered %v), want queued+recovered",
						b, j.ID, j.State, j.Recovered)
				}
			}
		}
		recov := st.Recovered()
		nq := 0
		for _, e := range want {
			if !terminal(e.state) {
				nq++
			}
		}
		if len(recov) != nq {
			t.Fatalf("prefix %d: Recovered() returned %d jobs, want %d", b, len(recov), nq)
		}

		// Remember a prefix where job 1 finished but job 2 was mid-run:
		// the interesting restart below.
		if midPrefix < 0 && !torn && len(order) >= 2 {
			e1, e2 := want[order[0]], want[order[1]]
			if e1 != nil && e1.hasDone && e2 != nil && e2.state == StateRunning {
				midPrefix = k
			}
		}
	}
	if midPrefix < 0 {
		t.Fatal("no journal prefix has job 1 done and job 2 running — workload too small?")
	}

	// Phase 3: full daemon restart from the mid-flight prefix.
	rdir := t.TempDir()
	prefix := append(bytes.Join(lines[:midPrefix], []byte("\n")), '\n')
	if err := os.WriteFile(filepath.Join(rdir, journalName), prefix, 0o644); err != nil {
		t.Fatalf("write mid prefix: %v", err)
	}
	doneGuides, err := os.ReadFile(filepath.Join(dir, ids[0]+".guides"))
	if err != nil {
		t.Fatalf("read done-job guides: %v", err)
	}
	if err := os.WriteFile(filepath.Join(rdir, ids[0]+".guides"), doneGuides, 0o644); err != nil {
		t.Fatalf("copy done-job guides: %v", err)
	}
	// Stamp the artifact so re-execution would be detectable: the done
	// job must be served from disk, not re-routed.
	marker := append([]byte("# recovered-from-disk\n"), doneGuides...)
	if err := os.WriteFile(filepath.Join(rdir, ids[0]+".guides"), marker, 0o644); err != nil {
		t.Fatalf("stamp guides: %v", err)
	}

	rs := startTestServer(t, Config{Dir: rdir, Runners: 2})
	for _, id := range ids {
		if j := waitTerminal(t, rs, id, 180*time.Second); j.State != StateDone {
			t.Fatalf("recovered job %s ended %s: %s", id, j.State, j.Error)
		}
	}
	// The pre-crash-done job serves its (stamped) artifact untouched…
	if code, b := fetchGuides(t, rs, ids[0]); code != http.StatusOK || !bytes.Equal(b, marker) {
		t.Fatalf("done job %s re-executed or lost its artifact (status %d, %d bytes)", ids[0], code, len(b))
	}
	// …and the re-executed jobs reproduce the pre-crash bytes exactly.
	for _, id := range ids[1:] {
		code, b := fetchGuides(t, rs, id)
		if code != http.StatusOK {
			t.Fatalf("recovered guides %s: status %d", id, code)
		}
		if !bytes.Equal(b, wantGuides[id]) {
			t.Fatalf("job %s: recovered guides differ from pre-crash guides (%d vs %d bytes)",
				id, len(b), len(wantGuides[id]))
		}
	}
	// Recovered-job accounting: the restarted daemon counted its requeues.
	recovered := rs.obs.M().Counter(obs.MServeRecovered)
	if recovered.Value() == 0 {
		t.Fatal("restart requeued jobs but serve.jobs.recovered is zero")
	}
}
