package main

import (
	"encoding/json"
	"time"

	"fastgr/internal/atomicio"
	"fastgr/internal/obs"
)

// span is one timed call the benchmark made into a layer. Parent is the
// index of the enclosing span (-1 at the top) and Op the operation the
// span belongs to, so the spans of one op share an identifier.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// recorder is the benchmark's own span recorder: spans live in memory and
// are written once, at exit. The harness is single-goroutine, so it needs
// no locking, and a span's self time is its duration minus its children's
// (only the daemon's per-job top-level spans ever overlap). A nil recorder
// records nothing — untraced ops pass nil and pay only the nil checks.
type recorder struct {
	t0    obs.Stopwatch
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: obs.StartStopwatch()} }

// noSpan is the id every call on a nil recorder returns.
const noSpan = -1

func (r *recorder) start(name string, parent, op int) int {
	if r == nil {
		return noSpan
	}
	r.spans = append(r.spans, span{Name: name, StartNs: r.t0.ElapsedNs(), Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id == noSpan {
		return
	}
	r.spans[id].EndNs = r.t0.ElapsedNs()
}

// dur is the span's duration; 0 on a nil recorder.
func (r *recorder) dur(id int) time.Duration {
	if r == nil || id == noSpan {
		return 0
	}
	return time.Duration(r.spans[id].EndNs - r.spans[id].StartNs)
}

// write publishes the spans as one JSON document through atomicio.
func (r *recorder) write(path string, stamp hostStamp) error {
	doc := struct {
		Stamp hostStamp `json:"stamp"`
		Spans []span    `json:"spans"`
	}{stamp, r.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, append(data, '\n'))
}
