package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"fastgr/internal/atomicio"
	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/guide"
	"fastgr/internal/obs"
	"fastgr/internal/route"
)

// execWorkers and the GOMAXPROCS the harness forces: pinned, not taken
// from the host, so two result files differ only in what was measured.
const (
	execWorkers = 2
	maxProcs    = 2
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fingerprint is what must repeat exactly whenever the same instance is
// routed with the same options: the deterministic part of the report.
type fingerprint struct {
	Score      float64
	Wirelength int
	Vias       int
	Shorts     int
	Modeled    time.Duration
}

func fingerprintOf(r core.Report) fingerprint {
	return fingerprint{r.Score, r.Quality.Wirelength, r.Quality.Vias, r.Quality.Shorts, r.Times.Total}
}

// opOut is one completed op.
type opOut struct {
	Wall, CPU  time.Duration
	Report     core.Report
	Nets       int
	GuideBytes int
	GuideCount int
	// Span ids of the op's calls (noSpan when untraced).
	RouteSpan, BuildSpan, CoversSpan, WriteSpan int
}

// routeOp is what a user of `fastgr -guides` pays for: design in memory →
// core.Route → guide.FromResult → guide.Covers → guide.Write to a file
// through atomicio. A GC runs before (outside) the timed part so an op
// never inherits the previous one's garbage. After the clock stops the
// output is verified: every net's route connects its pins, and the guide
// file re-parses to the count written. Any error is a failed op.
func routeOp(rec *recorder, op int, d *design.Design, opt core.Options, path string) (opOut, error) {
	runtime.GC()
	out := opOut{Nets: len(d.Nets)}
	cpu0 := cpuTime()
	sw := obs.StartStopwatch()
	top := rec.start("op", noSpan, op)

	out.RouteSpan = rec.start("core.Route", top, op)
	res, err := core.Route(d, opt)
	rec.end(out.RouteSpan)
	if err != nil {
		return out, fmt.Errorf("route: %w", err)
	}
	out.BuildSpan = rec.start("guide.FromResult", top, op)
	guides := guide.FromResult(res)
	rec.end(out.BuildSpan)

	out.CoversSpan = rec.start("guide.Covers", top, op)
	err = guide.Covers(res, guides)
	rec.end(out.CoversSpan)
	if err != nil {
		return out, fmt.Errorf("guide contract: %w", err)
	}
	out.WriteSpan = rec.start("guide.Write", top, op)
	err = writeGuides(path, guides)
	rec.end(out.WriteSpan)
	if err != nil {
		return out, fmt.Errorf("write guides: %w", err)
	}

	rec.end(top)
	out.Wall = sw.Elapsed()
	out.CPU = cpuTime() - cpu0
	out.Report = res.Report
	out.GuideCount = len(guides)

	for _, n := range d.Nets {
		r := res.Routes[n.ID]
		if r == nil {
			return out, fmt.Errorf("net %s has no route", n.Name)
		}
		if err := r.Validate(res.Grid, route.PinTerminals(res.Trees[n.ID])); err != nil {
			return out, fmt.Errorf("net %s: %w", n.Name, err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return out, err
	}
	out.GuideBytes = len(data)
	back, err := guide.Read(bytes.NewReader(data))
	if err != nil {
		return out, fmt.Errorf("re-read guides: %w", err)
	}
	if len(back) != len(guides) {
		return out, fmt.Errorf("guide file holds %d guides, wrote %d", len(back), len(guides))
	}
	return out, nil
}

func writeGuides(path string, guides []guide.Guide) error {
	f, err := atomicio.Create(path)
	if err != nil {
		return err
	}
	defer f.Abort()
	if err := guide.Write(f, guides); err != nil {
		return err
	}
	return f.Commit()
}

// tally counts ops against the number attempted and holds the first
// fingerprint seen per key, so a rep that disagrees with an earlier rep
// of the same input is a failed op, not a warning.
type tally struct {
	Attempted int
	Failed    int
	Errors    []string
	seen      map[string]fingerprint
}

func newTally() *tally { return &tally{seen: map[string]fingerprint{}} }

// record books one op under key. err marks it failed outright; otherwise
// fp must match the first fingerprint recorded under the same key.
func (t *tally) record(key string, fp fingerprint, err error) bool {
	t.Attempted++
	if err == nil {
		first, ok := t.seen[key]
		if !ok {
			t.seen[key] = fp
			return true
		}
		if first == fp {
			return true
		}
		err = fmt.Errorf("not deterministic: %+v, first rep %+v", fp, first)
	}
	t.Failed++
	if len(t.Errors) < 8 {
		t.Errors = append(t.Errors, fmt.Sprintf("%s: %v", key, err))
	}
	return false
}
