package obs

import (
	"encoding/json"
	"sync"
	"time"

	"fastgr/internal/atomicio"
)

// Journal is the structured run journal: one JSON object per line, one
// line per pipeline stage boundary or rip-up iteration. The first event
// replaces any stale file (atomicio.WriteFile); later ones are appended
// through atomicio's journal protocol, so a crash at any instant leaves
// every event emitted before it, plus at worst a torn last line, and the
// run writes each byte once.
//
// Envelope schema (one per line):
//
//	{"seq": 3, "ts_ms": 1754650000123, "event": "iter", "data": {...}}
//
// seq increases by one per event; ts_ms is the wall-clock Unix
// timestamp in milliseconds (observational only, like every wall read
// in this package); data is the emitter's payload, schema'd by event
// kind (see DESIGN.md "Serving observability"). The nil *Journal is the
// disabled journal: Emit is a no-op, so call sites need no conditionals.
type Journal struct {
	mu    sync.Mutex
	path  string
	now   func() time.Time
	seq   int64
	err   error // first write error; later Emits still write
	fresh bool  // the first event replaced any stale file
}

type journalEnvelope struct {
	Seq   int64  `json:"seq"`
	TsMs  int64  `json:"ts_ms"`
	Event string `json:"event"`
	Data  any    `json:"data"`
}

// NewJournal returns a journal writing to path. Nothing is written
// until the first Emit.
func NewJournal(path string) *Journal {
	return &Journal{path: path, now: time.Now}
}

// setClock pins the clock for deterministic tests.
func (j *Journal) setClock(now func() time.Time) { j.now = now }

// Emit writes one event to the journal file. A failed event leaves a
// seq gap, and the first failure is reported by Err; emission itself
// never fails the caller, keeping the journal as passive as the rest of
// the flight recorder.
func (j *Journal) Emit(event string, data any) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	line, err := json.Marshal(journalEnvelope{
		Seq:   j.seq,
		TsMs:  j.now().UnixMilli(),
		Event: event,
		Data:  data,
	})
	switch {
	case err != nil:
	case j.fresh:
		err = atomicio.AppendLine(j.path, line)
	default:
		err = atomicio.WriteFile(j.path, append(line, '\n'))
		j.fresh = err == nil
	}
	if err != nil && j.err == nil {
		j.err = err
	}
}

// Events reports how many events were emitted (0 for nil).
func (j *Journal) Events() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Err returns the first marshal or write error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
