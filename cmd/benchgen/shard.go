package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"fastgr/internal/atomicio"
	"fastgr/internal/core"
	"fastgr/internal/design"
)

// The sharded-vs-monolithic sweep runs the largest Table III design that
// fits the harness through the full pipeline once monolithically and once
// per shard count, and records quality and peak-heap high-water for each.
// tier1.sh runs `benchgen -shard` and fails the build when sharding stops
// paying for itself.
const (
	shardDesignName = "19test9m"
	shardScale      = 0.005
	shardWorkers    = 4

	// maxShardHeapRatio gates the memory claim: the K=4 run's peak-heap
	// growth over its pre-route baseline must be at most this fraction of
	// the monolithic (K = 0, one-leaf plan) run's. The one-leaf plan
	// materializes a full-grid cost cache with prefix-sum arrays; a cut
	// plan serves the same values from transient leaf-window caches, so
	// its high-water should sit well below half.
	maxShardHeapRatio = 0.5

	// maxShardScoreDriftPct bounds quality drift: every sharded run's
	// eq. 15 score must stay within this percentage of the monolithic
	// run's. (Sharded runs are bit-identical across K by construction —
	// core's TestShardDeterminism — but the cut plan may differ slightly from
	// the one-leaf plan: boundary nets are split and stitched, and
	// windowed caches skip the prefix-sum rounding.)
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

	Monolithic shardRun   `json:"monolithic"`
	Sharded    []shardRun `json:"sharded"`

	// HeapRatioK4 is delta(K=4)/delta(monolithic), gated below
	// MaxHeapRatioK4; ScoreDriftPct is the worst |score_K - score_mono|
	// drift across the sweep, gated below MaxScoreDriftPct.
	HeapRatioK4      float64 `json:"heap_ratio_k4"`
	MaxHeapRatioK4   float64 `json:"max_heap_ratio_k4"`
	ScoreDriftPct    float64 `json:"score_drift_pct"`
	MaxScoreDriftPct float64 `json:"max_score_drift_pct"`

	// Meta fingerprints the measurement host for -regress (stamp.go).
	Meta BenchMeta `json:"meta"`
}

// runShard sweeps the full pipeline monolithically and at K ∈ {1, 2, 4}
// shards, records quality/overflow/peak-heap per run, and writes the JSON
// record. It returns an error — failing the build — when the K=4 heap
// high-water misses the reduction gate or any sharded score drifts from
// the monolithic one.
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
		MaxHeapRatioK4:   maxShardHeapRatio,
		MaxScoreDriftPct: maxShardScoreDriftPct,
	}
	var err error
	if rep.Monolithic, err = doRun(0); err != nil {
		return err
	}
	var k4 *shardRun
	for _, k := range []int{1, 2, 4} {
		sr, err := doRun(k)
		if err != nil {
			return err
		}
		rep.Sharded = append(rep.Sharded, sr)
		if k == 4 {
			k4 = &rep.Sharded[len(rep.Sharded)-1]
		}
		drift := 100 * (sr.Score - rep.Monolithic.Score) / rep.Monolithic.Score
		if drift < 0 {
			drift = -drift
		}
		if drift > rep.ScoreDriftPct {
			rep.ScoreDriftPct = drift
		}
	}
	rep.HeapRatioK4 = float64(k4.DeltaHeap) / float64(rep.Monolithic.DeltaHeap)

	rep.Meta = currentBenchMeta()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		if _, err := os.Stdout.Write(data); err != nil {
			return err
		}
	} else {
		if err := atomicio.WriteFile(out, data); err != nil {
			return err
		}
		fmt.Printf("sharded routing benchmark record written to %s\n", out)
	}
	if rep.HeapRatioK4 > maxShardHeapRatio {
		return fmt.Errorf("K=4 peak-heap delta is %.2fx the monolithic one (gate %.2fx): %d vs %d bytes",
			rep.HeapRatioK4, maxShardHeapRatio, k4.DeltaHeap, rep.Monolithic.DeltaHeap)
	}
	if rep.ScoreDriftPct > maxShardScoreDriftPct {
		return fmt.Errorf("sharded score drifts %.2f%% from monolithic (gate %.1f%%)",
			rep.ScoreDriftPct, maxShardScoreDriftPct)
	}
	return nil
}
