package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// traceEvent is one Chrome trace_event entry. Only the "X" (complete)
// and "M" (metadata) phases are emitted; ts and dur are microseconds,
// per the trace-event format spec.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	DroppedEvents   uint64       `json:"droppedEvents"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// WriteTrace exports the tracer's buffered spans as Chrome trace_event
// JSON, loadable in chrome://tracing or https://ui.perfetto.dev: lane 0
// is the "stages" thread (plan / pattern / rrr and their sub-spans),
// lane 1+w is executor worker w. Events are sorted by start time with
// enclosing spans first, so nesting renders correctly. A nil tracer
// exports an empty but valid trace.
func WriteTrace(w io.Writer, t *Tracer) error {
	f := traceFile{DisplayTimeUnit: "ms", DroppedEvents: t.Dropped()}
	f.TraceEvents = append(f.TraceEvents, traceEvent{
		Name: "process_name", Ph: "M", Args: map[string]any{"name": "fastgr"},
	})
	for lane := 0; lane < t.Lanes(); lane++ {
		name := "stages"
		if lane > 0 {
			name = fmt.Sprintf("worker-%d", lane-1)
		}
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Tid: lane, Args: map[string]any{"name": name},
		})
	}
	events := t.Events()
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Start != events[j].Start {
			return events[i].Start < events[j].Start
		}
		if events[i].Dur != events[j].Dur {
			return events[i].Dur > events[j].Dur // parents enclose children
		}
		return events[i].Depth < events[j].Depth
	})
	for _, e := range events {
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: e.Name,
			Ph:   "X",
			Tid:  e.Lane,
			Ts:   float64(e.Start.Nanoseconds()) / 1e3,
			Dur:  float64(e.Dur.Nanoseconds()) / 1e3,
			Args: map[string]any{"depth": e.Depth},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// WriteSummary renders a registry snapshot as the human-readable
// end-of-run table: counters and gauges first, then one sketch per
// histogram (count / mean / min / max plus a bar per non-empty bucket).
func WriteSummary(w io.Writer, s Snapshot) {
	if len(s.Counters) > 0 || len(s.Gauges) > 0 {
		fmt.Fprintf(w, "%-28s %14s\n", "counter/gauge", "value")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(w, "%-28s %14d\n", name, s.Counters[name])
		}
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(w, "%-28s %14d\n", name, s.Gauges[name])
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(w, "%s: count=%d mean=%.1f min=%d max=%d\n",
			name, h.Count, h.Mean(), h.Min, h.Max)
		peak := int64(0)
		for _, c := range h.Counts {
			if c > peak {
				peak = c
			}
		}
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			label := fmt.Sprintf("> %d", h.Bounds[len(h.Bounds)-1])
			if i < len(h.Bounds) {
				label = fmt.Sprintf("<= %d", h.Bounds[i])
			}
			bar := 1 + int(19*c/peak)
			fmt.Fprintf(w, "  %-14s %10d %s\n", label, c, strings.Repeat("#", bar))
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
