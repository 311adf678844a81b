package core

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/obs"
)

type journalLine struct {
	Seq   int64           `json:"seq"`
	TsMs  int64           `json:"ts_ms"`
	Event string          `json:"event"`
	Data  json.RawMessage `json:"data"`
}

func readJournalLines(t *testing.T, path string) []journalLine {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	defer f.Close()
	var out []journalLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var line journalLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %d is not valid JSON: %v (%q)", len(out)+1, err, sc.Text())
		}
		out = append(out, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

// TestRunJournal routes with a journal attached and checks the recorded
// trajectory: valid JSON lines with monotone sequence numbers, paired
// stage events for every pipeline stage, and one iter event per recorded
// rip-up iteration with monotone iteration numbers matching Report.RRR.
func TestRunJournal(t *testing.T) {
	d := design.MustGenerate("18test5m", testScale)
	for _, shards := range []int{0, 2} {
		path := filepath.Join(t.TempDir(), "run.jsonl")
		j := obs.NewJournal(path)
		opt := DefaultOptions(FastGRH)
		opt.T1, opt.T2 = 4, 40
		opt.ExecWorkers = 2
		opt.Shards = shards
		opt.Obs = &obs.Observer{Metrics: obs.NewRegistry()}
		opt.Journal = j
		res, err := Route(d, opt)
		if err != nil {
			t.Fatalf("shards=%d: route: %v", shards, err)
		}
		if err := j.Err(); err != nil {
			t.Fatalf("shards=%d: journal: %v", shards, err)
		}

		lines := readJournalLines(t, path)
		if len(lines) == 0 {
			t.Fatalf("shards=%d: empty journal", shards)
		}
		starts := map[string]int{}
		dones := map[string]int{}
		var iters []int
		for i, line := range lines {
			if line.Seq != int64(i+1) {
				t.Fatalf("shards=%d: seq not monotone at line %d: %d", shards, i+1, line.Seq)
			}
			switch line.Event {
			case "stage":
				var ev struct {
					Stage  string `json:"stage"`
					Status string `json:"status"`
				}
				if err := json.Unmarshal(line.Data, &ev); err != nil {
					t.Fatalf("shards=%d: stage payload: %v", shards, err)
				}
				switch ev.Status {
				case "start":
					starts[ev.Stage]++
				case "done":
					dones[ev.Stage]++
				default:
					t.Fatalf("shards=%d: stage status %q", shards, ev.Status)
				}
			case "iter":
				var ev struct {
					Iter  int     `json:"iter"`
					Nets  int     `json:"nets"`
					Score float64 `json:"score"`
				}
				if err := json.Unmarshal(line.Data, &ev); err != nil {
					t.Fatalf("shards=%d: iter payload: %v", shards, err)
				}
				iters = append(iters, ev.Iter)
				if ev.Nets == 0 {
					t.Errorf("shards=%d: iter %d journaled zero nets", shards, ev.Iter)
				}
				if want := res.Report.RRR[len(iters)-1].Score; ev.Score != want {
					t.Errorf("shards=%d: iter %d score %v, want %v", shards, ev.Iter, ev.Score, want)
				}
			default:
				t.Fatalf("shards=%d: unknown event %q", shards, line.Event)
			}
		}
		for _, stage := range []string{"plan", "pattern", "rrr"} {
			if starts[stage] != 1 || dones[stage] != 1 {
				t.Errorf("shards=%d: stage %s events start=%d done=%d, want 1/1",
					shards, stage, starts[stage], dones[stage])
			}
		}
		if len(iters) != len(res.Report.RRR) {
			t.Fatalf("shards=%d: %d iter events for %d recorded iterations",
				shards, len(iters), len(res.Report.RRR))
		}
		for i, it := range iters {
			if it != i {
				t.Fatalf("shards=%d: iteration numbers not monotone: %v", shards, iters)
			}
		}
	}
}

// TestRunJournalPassive extends the passive-observability contract to
// the journal: attaching one changes no paper-facing output.
func TestRunJournalPassive(t *testing.T) {
	d := design.MustGenerate("18test5m", testScale)
	opt := DefaultOptions(FastGRH)
	opt.T1, opt.T2 = 4, 40
	opt.ExecWorkers = 2
	base, err := Route(d, opt)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	journaled := opt
	journaled.Obs = &obs.Observer{Metrics: obs.NewRegistry(), Health: obs.NewHealth()}
	journaled.Journal = obs.NewJournal(filepath.Join(t.TempDir(), "run.jsonl"))
	res, err := Route(d, journaled)
	if err != nil {
		t.Fatalf("journaled: %v", err)
	}
	a, b := base.Report, res.Report
	if a.Quality != b.Quality || a.Score != b.Score ||
		a.Times.Pattern != b.Times.Pattern || a.Times.Maze != b.Times.Maze ||
		!reflect.DeepEqual(a.RRR, b.RRR) {
		t.Errorf("journal changed reported results:\n%+v\nvs\n%+v", a, b)
	}
	for _, n := range d.Nets {
		ra, rb := base.Routes[n.ID], res.Routes[n.ID]
		if (ra == nil) != (rb == nil) ||
			(ra != nil && !slices.Equal(ra.Edges(), rb.Edges())) {
			t.Fatalf("journal changed net %s geometry", n.Name)
		}
	}
}
