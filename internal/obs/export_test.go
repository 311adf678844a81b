package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// goldenTrace builds the deterministic fixture behind the golden test:
// a fake 1µs-step clock, a stage span on the coordinator lane enclosing
// one maze span on each of two worker lanes.
func goldenTrace() *Tracer {
	tr := newFakeTracer(8, 2, time.Microsecond)
	plan := tr.StartSpan("plan", Coordinator)
	m0 := tr.StartSpan("maze:n0", 0)
	m0.End()
	m1 := tr.StartSpan("maze:n1", 1)
	m1.End()
	plan.End()
	return tr
}

// TestWriteTraceGolden pins the exact Chrome trace_event JSON: lane
// metadata first, then complete events sorted by start time with
// microsecond timestamps. Any byte change here is a format change that
// chrome://tracing / Perfetto consumers would see.
func TestWriteTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, goldenTrace()); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != goldenTraceJSON {
		t.Fatalf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, goldenTraceJSON)
	}
}

// TestWriteTraceValidJSONAndLanes decodes the export generically: it
// must be valid JSON with one thread_name metadata entry per lane and
// every span event carrying the X phase.
func TestWriteTraceValidJSONAndLanes(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, goldenTrace()); err != nil {
		t.Fatal(err)
	}
	var f struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		DroppedEvents   uint64 `json:"droppedEvents"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	lanes := map[int]string{}
	spans := 0
	for _, e := range f.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				lanes[e.Tid] = e.Name
			}
		case "X":
			spans++
			if e.Dur <= 0 {
				t.Errorf("span %q has non-positive dur %v", e.Name, e.Dur)
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if len(lanes) != 3 {
		t.Errorf("got %d lanes, want 3 (stages + 2 workers)", len(lanes))
	}
	if spans != 3 {
		t.Errorf("got %d span events, want 3", spans)
	}
}

func TestWriteTraceNilTracer(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("nil-tracer export must still be valid JSON")
	}
}

func TestWriteSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter(MRRRNets).Add(42)
	r.Gauge(MRRRIterations).Set(3)
	h := r.Histogram(&HistogramDecl{Decl{name: "maze.expansions", bounds: []int64{10, 100}}})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	var buf bytes.Buffer
	WriteSummary(&buf, r.Snapshot())
	out := buf.String()
	for _, want := range []string{
		"rrr.nets_ripped", "42",
		"rrr.iterations", "3",
		"maze.expansions: count=3", "min=5 max=5000",
		"<= 10", "<= 100", "> 100", "#",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// goldenTraceJSON is the expected WriteTrace output for goldenTrace.
const goldenTraceJSON = `{
 "displayTimeUnit": "ms",
 "droppedEvents": 0,
 "traceEvents": [
  {
   "name": "process_name",
   "ph": "M",
   "pid": 0,
   "tid": 0,
   "ts": 0,
   "args": {
    "name": "fastgr"
   }
  },
  {
   "name": "thread_name",
   "ph": "M",
   "pid": 0,
   "tid": 0,
   "ts": 0,
   "args": {
    "name": "stages"
   }
  },
  {
   "name": "thread_name",
   "ph": "M",
   "pid": 0,
   "tid": 1,
   "ts": 0,
   "args": {
    "name": "worker-0"
   }
  },
  {
   "name": "thread_name",
   "ph": "M",
   "pid": 0,
   "tid": 2,
   "ts": 0,
   "args": {
    "name": "worker-1"
   }
  },
  {
   "name": "plan",
   "ph": "X",
   "pid": 0,
   "tid": 0,
   "ts": 1,
   "dur": 5,
   "args": {
    "depth": 0
   }
  },
  {
   "name": "maze:n0",
   "ph": "X",
   "pid": 0,
   "tid": 1,
   "ts": 2,
   "dur": 1,
   "args": {
    "depth": 0
   }
  },
  {
   "name": "maze:n1",
   "ph": "X",
   "pid": 0,
   "tid": 2,
   "ts": 4,
   "dur": 1,
   "args": {
    "depth": 0
   }
  }
 ]
}
`
