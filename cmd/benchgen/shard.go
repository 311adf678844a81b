package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"fastgr/internal/core"
	"fastgr/internal/design"
)

// The sharded-vs-monolithic record runs the largest Table III design that
// fits the harness through the full pipeline once on the one-leaf plan and
// once on the cut plan, and records quality and peak-heap high-water for
// each. Every shard count >= 1 runs the same cut plan the same way, so one
// cut-plan run stands for all of them. tier1.sh runs `benchgen -shard` and
// fails the build when sharding stops paying for itself.
const (
	shardDesignName = "19test9m"
	shardScale      = 0.005
	shardWorkers    = 4
	// cutShards is the shard count of the cut-plan run; any K >= 1 is the
	// same run.
	cutShards = 1

	// maxShardHeapRatio gates the memory claim: the cut-plan run's
	// peak-heap growth over its pre-route baseline must be at most this
	// fraction of the monolithic (K = 0, one-leaf plan) run's. The
	// one-leaf plan materializes a full-grid cost cache for the whole run;
	// a cut plan keeps the same arrays (values, prefix runs, dirty flags)
	// in transient leaf-window caches, so its high-water should sit well
	// below half.
	maxShardHeapRatio = 0.5

	// maxShardScoreDriftPct bounds quality drift: the cut-plan run's eq. 15
	// score must stay within this percentage of the monolithic run's. (Cut
	// plans are bit-identical across K by construction — core's
	// TestShardDeterminism — but may differ slightly from the one-leaf
	// plan: boundary nets route after the intra-leaf ones, and a leaf cache
	// sums its prefix runs from the leaf's origin, so segment costs round
	// differently.)
	maxShardScoreDriftPct = 10.0
)

type shardRun struct {
	Shards           int     `json:"shards"`
	ShardLeaves      int     `json:"shard_leaves,omitempty"`
	BoundaryNets     int     `json:"boundary_nets,omitempty"`
	BoundaryReroutes int     `json:"boundary_reroutes,omitempty"`
	Wirelength       int     `json:"wirelength"`
	Vias             int     `json:"vias"`
	Overflow         int     `json:"overflow"`
	Score            float64 `json:"score"`
	BaselineHeap     uint64  `json:"baseline_heap_bytes"`
	PeakHeap         uint64  `json:"peak_heap_bytes"`
	DeltaHeap        uint64  `json:"delta_heap_bytes"`
	WallMs           float64 `json:"wall_ms"`
}

type shardReport struct {
	Design  string  `json:"design"`
	Scale   float64 `json:"scale"`
	Variant string  `json:"variant"`
	Workers int     `json:"workers"`

	Monolithic shardRun `json:"monolithic"`
	Cut        shardRun `json:"cut"`

	// HeapRatio is delta(cut)/delta(monolithic), gated below MaxHeapRatio;
	// ScoreDriftPct is |score_cut - score_mono| as a percentage of
	// score_mono, gated below MaxScoreDriftPct.
	HeapRatio    float64 `json:"heap_ratio"`
	MaxHeapRatio float64 `json:"max_heap_ratio"`
	// WallRatio is wall(cut)/wall(monolithic), the cut plan's time cost
	// over the one-leaf plan. Report-only: each is a single run on a
	// shared host, too noisy to gate.
	WallRatio        float64 `json:"wall_ratio"`
	ScoreDriftPct    float64 `json:"score_drift_pct"`
	MaxScoreDriftPct float64 `json:"max_score_drift_pct"`

	// Meta fingerprints the measurement host for -regress (stamp.go).
	Meta BenchMeta `json:"meta"`
}

// runShard runs the full pipeline on the one-leaf plan and on the cut
// plan, records quality/overflow/peak-heap per run, and writes the JSON
// record. It returns an error — failing the build — when the cut plan's
// heap high-water misses the reduction gate or its score drifts from the
// monolithic one.
func runShard(out string) error {
	d := design.MustGenerate(shardDesignName, shardScale)

	doRun := func(shards int) (shardRun, error) {
		// A full collection before the baseline read so the previous run's
		// garbage is not charged to this one; Route itself samples with
		// HeapGC so its high-water is equally garbage-free.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		opt := core.DefaultOptions(core.FastGRH)
		opt.T1, opt.T2 = 4, 40
		opt.ExecWorkers = shardWorkers
		opt.Shards = shards
		opt.HeapGC = true
		start := time.Now()
		res, err := core.Route(d, opt)
		if err != nil {
			return shardRun{}, fmt.Errorf("shards=%d: %w", shards, err)
		}
		r := res.Report
		sr := shardRun{
			Shards:           shards,
			ShardLeaves:      r.ShardLeaves,
			BoundaryNets:     r.BoundaryNets,
			BoundaryReroutes: r.BoundaryReroutes,
			Wirelength:       r.Quality.Wirelength,
			Vias:             r.Quality.Vias,
			Overflow:         r.Quality.Shorts,
			Score:            r.Score,
			BaselineHeap:     ms.HeapAlloc,
			PeakHeap:         r.PeakHeapBytes,
			WallMs:           float64(time.Since(start).Microseconds()) / 1e3,
		}
		if r.PeakHeapBytes > ms.HeapAlloc {
			sr.DeltaHeap = r.PeakHeapBytes - ms.HeapAlloc
		}
		return sr, nil
	}

	rep := shardReport{
		Design:           shardDesignName,
		Scale:            shardScale,
		Variant:          "FastGR-H",
		Workers:          shardWorkers,
		MaxHeapRatio:     maxShardHeapRatio,
		MaxScoreDriftPct: maxShardScoreDriftPct,
	}
	var err error
	if rep.Monolithic, err = doRun(0); err != nil {
		return err
	}
	if rep.Cut, err = doRun(cutShards); err != nil {
		return err
	}
	rep.ScoreDriftPct = 100 * math.Abs(rep.Cut.Score-rep.Monolithic.Score) / rep.Monolithic.Score
	rep.HeapRatio = float64(rep.Cut.DeltaHeap) / float64(rep.Monolithic.DeltaHeap)
	rep.WallRatio = rep.Cut.WallMs / rep.Monolithic.WallMs

	rep.Meta = currentBenchMeta()
	var gate error
	switch {
	case rep.HeapRatio > maxShardHeapRatio:
		gate = fmt.Errorf("cut-plan peak-heap delta is %.2fx the monolithic one (gate %.2fx): %d vs %d bytes",
			rep.HeapRatio, maxShardHeapRatio, rep.Cut.DeltaHeap, rep.Monolithic.DeltaHeap)
	case rep.ScoreDriftPct > maxShardScoreDriftPct:
		gate = fmt.Errorf("cut-plan score drifts %.2f%% from monolithic (gate %.1f%%)",
			rep.ScoreDriftPct, maxShardScoreDriftPct)
	}
	return writeRecord(out, "sharded routing benchmark record", rep, gate)
}
