package core

import (
	"testing"

	"fastgr/internal/design"
)

// TestUseFrameRule holds the search-record layout rule to the passes it
// was sized on, in cells (every record array spans all layers). The
// figures are the union and largest task window of the rip-up passes of
// the benchmark's route workloads and of a fastgrd job of its daemon mix.
func TestUseFrameRule(t *testing.T) {
	for _, c := range []struct {
		name                    string
		workers, union, largest int
		frame                   bool
	}{
		// 18test5m@0.05, FastGRL, 2 workers: every leaf pass.
		{"maze_5l leaves", 2, 34220, 30392, true},
		// 18test5@0.2, FastGRH, 2 workers: iteration 0, then a pass of
		// small scattered windows.
		{"pattern_9l leaves iter 0", 2, 104856, 97686, true},
		{"pattern_9l leaves iter 1", 2, 13932, 120, false},
		// 19test9m@0.005, FastGRH, Shards=2, 2 workers: leaf-clamped
		// windows against a union of both leaves, then the boundary nets.
		{"sharded_19m leaves", 2, 22752, 868, false},
		{"sharded_19m boundary", 2, 22752, 20808, true},
		// 18test5m@0.003 on one worker: a frame would only add records.
		{"daemon_mix leaves", 1, 2016, 1089, false},
		{"one worker, one window", 1, 1089, 1089, false},
		// The frame must be strictly smaller than the lanes.
		{"tie", 2, 2000, 1000, false},
		{"just smaller", 2, 1999, 1000, true},
	} {
		if got := useFrame(c.workers, c.union, c.largest); got != c.frame {
			t.Errorf("%s: useFrame(%d, %d, %d) = %v, want %v", c.name, c.workers, c.union, c.largest, got, c.frame)
		}
	}
}

// TestRecordsLayoutOnRuns drives the rule through whole runs: a daemon-mix
// job on one worker keeps per-lane records in every pass under every
// router, and a two-worker cut-plan run keeps them in its leaf passes and
// shares a frame in every boundary pass.
func TestRecordsLayoutOnRuns(t *testing.T) {
	type pass struct {
		name  string
		frame bool
	}
	var seen []pass
	recordsProbe = func(name string, frame bool) { seen = append(seen, pass{name, frame}) }
	defer func() { recordsProbe = nil }()
	run := func(d *design.Design, v Variant, workers, shards int, scale float64) {
		t.Helper()
		seen = seen[:0]
		opt := DefaultOptions(v)
		opt.ExecWorkers, opt.Shards = workers, shards
		opt.T1, opt.T2 = ScaledThreshold(100, scale), ScaledThreshold(500, scale)
		if _, err := Route(d, opt); err != nil {
			t.Fatal(err)
		}
		if len(seen) == 0 {
			t.Fatalf("%s %v: no rip-up pass ran", d.Name, v)
		}
	}

	mix := design.MustGenerate("18test5m", 0.003)
	for _, v := range []Variant{CUGR, FastGRL, FastGRH} {
		run(mix, v, 1, 0, 0.003)
		for _, p := range seen {
			if p.frame {
				t.Errorf("18test5m@0.003 %v on one worker: %s shares a frame", v, p.name)
			}
		}
	}

	cut := design.MustGenerate("19test9m", 0.005)
	run(cut, FastGRH, 2, 2, 0.005)
	leaves, boundary := 0, 0
	for _, p := range seen {
		switch {
		case p.name == "rrr.leaves" && p.frame:
			t.Errorf("19test9m@0.005 cut plan: a leaf pass shares a frame")
		case p.name == "rrr.boundary" && !p.frame:
			t.Errorf("19test9m@0.005 cut plan: a boundary pass keeps per-lane records")
		case p.name == "rrr.leaves":
			leaves++
		default:
			boundary++
		}
	}
	if leaves == 0 || boundary == 0 {
		t.Fatalf("cut plan ran %d leaf and %d boundary passes, want both", leaves, boundary)
	}
}
