package obs

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func readJournal(t *testing.T, path string) []journalEnvelope {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	defer f.Close()
	var out []journalEnvelope
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var env journalEnvelope
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatalf("line %d is not valid JSON: %v (%q)", len(out)+1, err, sc.Text())
		}
		out = append(out, env)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

func TestJournalEmit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j := NewJournal(path)
	now := time.UnixMilli(5000)
	j.setClock(func() time.Time { return now })

	j.Emit("stage", map[string]any{"stage": "plan"})
	// The file is complete and parseable after every emit — the
	// crash-safety contract.
	if got := readJournal(t, path); len(got) != 1 || got[0].Seq != 1 || got[0].TsMs != 5000 {
		t.Fatalf("after first emit: %+v", got)
	}
	now = now.Add(250 * time.Millisecond)
	j.Emit("iter", map[string]any{"iter": 0})
	j.Emit("iter", map[string]any{"iter": 1})
	got := readJournal(t, path)
	if len(got) != 3 {
		t.Fatalf("want 3 events, got %d", len(got))
	}
	for i, env := range got {
		if env.Seq != int64(i+1) {
			t.Fatalf("seq not monotone: %+v", got)
		}
	}
	if got[1].TsMs != 5250 || got[1].Event != "iter" {
		t.Fatalf("envelope fields: %+v", got[1])
	}
	if j.Events() != 3 {
		t.Fatalf("Events() = %d", j.Events())
	}
	if err := j.Err(); err != nil {
		t.Fatalf("Err() = %v", err)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Emit("stage", nil)
	if j.Events() != 0 || j.Err() != nil {
		t.Fatalf("nil journal not inert")
	}
}

func TestJournalPublishError(t *testing.T) {
	// A directory that does not exist makes every write fail; the
	// error is remembered, not raised at the emit site.
	j := NewJournal(filepath.Join(t.TempDir(), "missing", "deep", "run.jsonl"))
	j.Emit("stage", map[string]any{"stage": "plan"})
	if j.Err() == nil {
		t.Fatalf("expected a write error")
	}
	if j.Events() != 1 {
		t.Fatalf("events not counted past the error")
	}
}

func TestJournalReplacesStaleFile(t *testing.T) {
	// A journal left by an earlier run is replaced by the first event,
	// not appended to.
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte("{\"seq\":9}\n{\"seq\":10,\"torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	j := NewJournal(path)
	j.Emit("stage", map[string]any{"stage": "plan"})
	j.Emit("stage", map[string]any{"stage": "pattern"})
	got := readJournal(t, path)
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 || j.Err() != nil {
		t.Fatalf("journal over a stale file: %+v (err %v)", got, j.Err())
	}
}
