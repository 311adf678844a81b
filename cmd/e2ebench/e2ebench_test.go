package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesTables pins BENCHMARK.json to the harness: same
// workloads with the same reasons, same metric names and units, in order.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness {%s %s}", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	var e2e []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n file    %v\n harness %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file    %v\n harness %v", b.PerLayer, perLayer)
	}
}

// checkReadings asserts a result carries exactly the table's rows, each
// with its unit and a finite value (the ledger already refuses a name
// reported twice).
func checkReadings(t *testing.T, res result, defs []metricDef, mustBePositive bool) {
	t.Helper()
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", res.Workload, res.Failed, res.Attempted, res.Errors)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s missing", res.Workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s unit %q, want %q", res.Workload, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", res.Workload, d.Name, m.Value)
		case mustBePositive && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", res.Workload, d.Name, m.Value)
		}
	}
}

// TestSmokeAllWorkloads runs all four workloads at smoke size, untraced
// and traced: every metric named in BENCHMARK.json comes out once with its
// unit, no op fails, and the span file parses with every parent present.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		cfg := config{Seed: 1, Seconds: 0.001, Sz: smokeSizing, WorkDir: dir, Stamp: currentStamp(1, 0.001)}
		res, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkReadings(t, res, endToEnd, true)
		if res.Stamp.Nets == 0 || res.Stamp.Pool != smokeSizing.Pool || res.Samples == 0 {
			t.Errorf("%s: stamp %+v, %d samples", w.Name, res.Stamp, res.Samples)
		}

		cfg.Trace = true
		res, err = runWorkload(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkReadings(t, res, perLayer, false)
		for _, name := range []string{"core.maze_wall_ms", "patterngpu.stage_ms", "guide.bytes", "stt.build_ms"} {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v", w.Name, name, res.Metrics[name].Value)
			}
		}
		if (res.Metrics["maze.expansions"].Value > 0) != (res.Metrics["core.nets_to_ripup"].Value > 0) {
			t.Errorf("%s: replay expanded %v nodes for %v nets to rip up", w.Name,
				res.Metrics["maze.expansions"].Value, res.Metrics["core.nets_to_ripup"].Value)
		}
		if (res.Metrics["serve.service_ms"].Value > 0) != w.Daemon {
			t.Errorf("%s: serve rows measured = %v", w.Name, !w.Daemon)
		}
		if (res.Metrics["shard.boundary_reroutes"].Value > 0) != (w.Shards > 0) {
			t.Errorf("%s: sharded-only rows measured = %v", w.Name, w.Shards == 0)
		}

		data, err := os.ReadFile(cfg.tracePath(w.Name))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Stamp hostStamp `json:"stamp"`
			Spans []span    `json:"spans"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: span file: %v", w.Name, err)
		}
		if len(doc.Spans) == 0 || doc.Stamp.GoVersion == "" {
			t.Errorf("%s: span file has %d spans, stamp %+v", w.Name, len(doc.Spans), doc.Stamp)
		}
		for i, s := range doc.Spans {
			if s.Parent != noSpan && (s.Parent < 0 || s.Parent >= i) {
				t.Errorf("%s: span %d %q has parent %d", w.Name, i, s.Name, s.Parent)
			}
			if s.EndNs < s.StartNs {
				t.Errorf("%s: span %d %q ends before it starts", w.Name, i, s.Name)
			}
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != len(workloads) {
		t.Errorf("scratch directory holds %d entries, want only the %d span files", len(left), len(workloads))
	}
}

// TestSeedReordersButKeepsTheWork: a seed draws the visiting order and
// nothing else — every round still covers every pool instance once — and
// pool instances differ as designs but not in size.
func TestSeedReordersButKeepsTheWork(t *testing.T) {
	const n = 5
	differs := false
	for seed := int64(1); seed <= 8; seed++ {
		a := roundOrder(rand.New(rand.NewSource(0)), n)
		b := roundOrder(rand.New(rand.NewSource(seed)), n)
		differs = differs || !reflect.DeepEqual(a, b)
		sort.Ints(b)
		if !reflect.DeepEqual(b, []int{0, 1, 2, 3, 4}) {
			t.Fatalf("seed %d: round is not a permutation of the pool: %v", seed, b)
		}
	}
	if !differs {
		t.Error("no seed in 1..8 changed the visiting order")
	}

	w, _ := workloadByName("maze_5l")
	i0, err := w.generate(smokeSizing, 0)
	if err != nil {
		t.Fatal(err)
	}
	i1, err := w.generate(smokeSizing, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(i0.D.Nets) != len(i1.D.Nets) || i0.D.GridW != i1.D.GridW || i0.D.GridH != i1.D.GridH {
		t.Errorf("pool instances differ in size: %d nets %dx%d vs %d nets %dx%d",
			len(i0.D.Nets), i0.D.GridW, i0.D.GridH, len(i1.D.Nets), i1.D.GridW, i1.D.GridH)
	}
	if reflect.DeepEqual(i0.D.Nets[0].Pins, i1.D.Nets[0].Pins) && reflect.DeepEqual(i0.D.Nets[1].Pins, i1.D.Nets[1].Pins) {
		t.Error("pool instances 0 and 1 are the same design")
	}
}

// TestTallyFlagsNonDeterminism: a rep that disagrees with an earlier rep
// of the same input is a failed op.
func TestTallyFlagsNonDeterminism(t *testing.T) {
	tl := newTally()
	a := fingerprint{Score: 10, Wirelength: 3}
	if !tl.record("x", a, nil) || !tl.record("x", a, nil) {
		t.Fatal("identical reps must pass")
	}
	if !tl.record("y", fingerprint{Score: 11}, nil) {
		t.Fatal("a different key starts its own fingerprint")
	}
	if tl.record("x", fingerprint{Score: 10, Wirelength: 4}, nil) {
		t.Fatal("a differing rep must fail")
	}
	if tl.Attempted != 4 || tl.Failed != 1 || len(tl.Errors) != 1 {
		t.Fatalf("tally %+v", tl)
	}
}
