package atomicio_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"fastgr/internal/atomicio"
	"fastgr/internal/obs"
	"fastgr/internal/serve"
)

// The two journals that append through this package, driven through its
// fault seam.

// TestStoreWritesEachByteOnce: after 10 000 ledger transitions the bytes
// written through the seam equal the final file size — each record is
// written once, where republishing the whole file per record wrote
// O(n²) bytes.
func TestStoreWritesEachByteOnce(t *testing.T) {
	const transitions = 10000
	dir := t.TempDir()
	var fl atomicio.Faults
	atomicio.Inject(t, &fl)
	s, err := serve.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var id string
	for i := 0; i < transitions; i++ {
		switch i % 3 {
		case 0:
			j, err := s.Submit(serve.JobSpec{Design: "18test5m", Scale: 0.005}, 1)
			if err != nil {
				t.Fatal(err)
			}
			id = j.ID
		case 1:
			_, err = s.SetState(id, serve.StateRunning, "", nil)
		case 2:
			_, err = s.SetState(id, serve.StateDone, "", &serve.JobResult{Wirelength: i})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if fl.Written != fi.Size() {
		t.Fatalf("%d transitions wrote %d bytes for a %d-byte ledger", transitions, fl.Written, fi.Size())
	}
	lines, err := atomicio.ReadLines(filepath.Join(dir, "jobs.jsonl"))
	if err != nil || len(lines) != transitions {
		t.Fatalf("ledger holds %d records (err %v), want %d", len(lines), err, transitions)
	}
}

// TestJournalEmitsPastAppendFaults: a failed append drops only its own
// event, emission goes on, and Err reports the first failure; after a
// failed rollback every later event fails until the file is replayed.
func TestJournalEmitsPastAppendFaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	var fl atomicio.Faults
	atomicio.Inject(t, &fl)
	j := obs.NewJournal(path)
	j.Emit("stage", 1)
	fl.Write = syscall.ENOSPC
	j.Emit("iter", 2)
	j.Emit("iter", 3)
	fl.Short, fl.Truncate = syscall.EIO, syscall.EIO
	j.Emit("iter", 4)
	j.Emit("iter", 5)
	if err := j.Err(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Err() = %v, want the first failure (ENOSPC)", err)
	}
	if j.Events() != 5 {
		t.Fatalf("Events() = %d, want 5", j.Events())
	}
	lines, err := atomicio.ReadLines(path)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []int64
	for _, l := range lines {
		var env struct{ Seq int64 }
		if err := json.Unmarshal(l, &env); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		seqs = append(seqs, env.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 3 {
		t.Fatalf("journal seqs %v, want [1 3]", seqs)
	}
}
