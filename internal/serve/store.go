package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"fastgr/internal/atomicio"
)

// Store is the crash-safe job ledger: each state transition is one
// JSON-lines record appended through internal/atomicio's journal
// protocol, so a crash leaves a prefix of the history and a refused
// record leaves nothing. Replay maps running back to queued, so any
// prefix is a consistent ledger where every job is terminal (guides on
// disk — see runJob's write ordering) or queued for re-execution. No job
// is lost or duplicated: the submit record is journaled before the client
// learns the job ID, and IDs come from the journaled sequence.
//
// Journal record schema (one per line):
//
//	{"seq": 0, "kind": "submit", "id": "job-000001", "spec": {...}}
//	{"seq": 1, "kind": "state", "id": "job-000001", "state": "running"}
//	{"seq": 2, "kind": "state", "id": "job-000001", "state": "done",
//	 "result": {...}}
//
// seq starts at 0 and increases by one per record; terminal state
// records carry the result and/or error.
type Store struct {
	mu      sync.Mutex
	dir     string
	path    string
	jobs    map[string]*Job
	order   []string // insertion order, for deterministic listings
	nextSeq int64
	nextID  int64
}

type journalRecord struct {
	Seq    int64      `json:"seq"`
	Kind   string     `json:"kind"` // "submit" or "state"
	ID     string     `json:"id"`
	Spec   *JobSpec   `json:"spec,omitempty"`
	State  string     `json:"state,omitempty"`
	Error  string     `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`
}

// journalName is the ledger file inside the store directory.
const journalName = "jobs.jsonl"

// OpenStore opens (creating if needed) the job store rooted at dir and
// replays its journal. Jobs whose last journaled state is queued or
// running come back queued with Recovered set — the caller requeues
// them; terminal jobs are served from the ledger (and their guides from
// disk) without re-execution.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:  dir,
		path: filepath.Join(dir, journalName),
		jobs: make(map[string]*Job),
	}
	lines, err := atomicio.ReadLines(s.path)
	if err != nil {
		return nil, err
	}
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("serve: journal %s line %d: %w", s.path, i+1, err)
		}
		s.replay(rec)
	}
	for _, id := range s.order {
		j := s.jobs[id]
		if j.State == StateRunning {
			// The process died mid-run; the work is lost, the job is not.
			j.State = StateQueued
		}
		if j.State == StateQueued {
			j.Recovered = true
			// The spec was journaled normalized, so normalize only
			// re-parses an upload (nil if it no longer parses).
			up, _ := j.Spec.normalize()
			j.bytes = j.Spec.estimateBytes(up)
		}
	}
	return s, nil
}

// Dir returns the store's root directory (guides live beside the journal).
func (s *Store) Dir() string { return s.dir }

// GuidePath returns where a job's guides file lives.
func (s *Store) GuidePath(id string) string {
	return filepath.Join(s.dir, id+".guides")
}

// replay applies one journal record to the in-memory ledger.
func (s *Store) replay(rec journalRecord) {
	if rec.Seq >= s.nextSeq {
		s.nextSeq = rec.Seq + 1
	}
	switch rec.Kind {
	case "submit":
		if rec.Spec == nil {
			return
		}
		j := &Job{ID: rec.ID, Spec: *rec.Spec, State: StateQueued}
		if _, dup := s.jobs[rec.ID]; dup {
			return
		}
		s.jobs[rec.ID] = j
		s.order = append(s.order, rec.ID)
		var n int64
		if _, err := fmt.Sscanf(rec.ID, "job-%d", &n); err == nil && n >= s.nextID {
			s.nextID = n
		}
	case "state":
		j := s.jobs[rec.ID]
		if j == nil {
			return
		}
		j.State = rec.State
		j.Error = rec.Error
		if rec.Result != nil {
			j.Result = rec.Result
		}
	}
}

// emit journals one record; on failure nothing reached the file and
// the seq is not spent. Called with the lock held.
func (s *Store) emit(rec journalRecord) error {
	rec.Seq = s.nextSeq
	line, err := json.Marshal(rec)
	if err == nil {
		err = atomicio.AppendLine(s.path, line)
	}
	if err == nil {
		s.nextSeq++
	}
	return err
}

// Submit journals a new job and returns it (a snapshot). The journal
// write happens before the caller sees the ID, so an accepted job is
// always recoverable.
func (s *Store) Submit(spec JobSpec, estBytes int64) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	j := &Job{
		ID:    fmt.Sprintf("job-%06d", s.nextID),
		Spec:  spec,
		State: StateQueued,
		bytes: estBytes,
	}
	if err := s.emit(journalRecord{Kind: "submit", ID: j.ID, Spec: &spec}); err != nil {
		s.nextID--
		return Job{}, err
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	return *j, nil
}

// SetState journals a state transition. Transitions out of a terminal
// state are refused (the first terminal record wins — a drain-requeue
// racing a DELETE cannot resurrect a cancelled job). It returns the
// state the job is left in.
func (s *Store) SetState(id, state, errText string, result *JobResult) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return "", fmt.Errorf("serve: unknown job %s", id)
	}
	return s.setStateLocked(j, state, errText, result)
}

// setStateLocked is SetState with s.mu held and the job found.
func (s *Store) setStateLocked(j *Job, state, errText string, result *JobResult) (string, error) {
	if terminal(j.State) {
		return j.State, nil
	}
	if err := s.emit(journalRecord{Kind: "state", ID: j.ID, State: state, Error: errText, Result: result}); err != nil {
		return j.State, err
	}
	j.State = state
	j.Error = errText
	if result != nil {
		j.Result = result
	}
	return state, nil
}

// failInMemory moves a non-terminal job to failed without journaling it,
// for a job whose record the ledger refused. It reports whether the job
// moved.
func (s *Store) failInMemory(id, errText string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil || terminal(j.State) {
		return false
	}
	j.State = StateFailed
	j.Error = errText
	return true
}

// Get returns a snapshot of one job.
func (s *Store) Get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// List returns snapshots of every job in submission order.
func (s *Store) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.jobs[id])
	}
	return out
}

// Recovered returns the jobs journal replay left queued, in submission
// order, for the server to requeue at startup.
func (s *Store) Recovered() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Job
	for _, id := range s.order {
		if j := s.jobs[id]; j.State == StateQueued && j.Recovered {
			out = append(out, *j)
		}
	}
	return out
}

// RequestCancel marks a job for cancellation. For a queued job it
// journals the cancelled state directly (the runner skips it on pop);
// for a running job it only flags the intent — the caller cancels the
// run's context and the runner journals the terminal state with the
// partial result. Returns the job's state as the cancel found it, so
// the handler can distinguish a fresh cancel from one landing on an
// already-terminal job. When the ledger refuses a queued job's cancelled
// record, the error comes back and nothing changes: the job stays queued
// and unflagged, and runs.
func (s *Store) RequestCancel(id string) (string, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return "", false, nil
	}
	prev := j.State
	if prev == StateQueued {
		if _, err := s.setStateLocked(j, StateCancelled, "cancelled while queued", nil); err != nil {
			return prev, true, err
		}
	}
	j.cancelRequested = true
	return prev, true, nil
}

// CancelRequested reports whether a DELETE landed on the job.
func (s *Store) CancelRequested(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	return j != nil && j.cancelRequested
}
