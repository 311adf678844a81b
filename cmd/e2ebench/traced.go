package main

import (
	"time"

	"fastgr/internal/core"
	"fastgr/internal/obs"
)

// traced is the -trace 1 run: the per-layer rows. The benchmark wraps
// every call an op makes in its own span recorder, reads the stage walls
// and counts core.Route returns in its Report, and replays the layers one
// by one (replay.go). End-to-end numbers never come from this run.
func (r *run) traced(l *ledger, traceOut string, stamp hostStamp) error {
	rec := newRecorder()
	if r.W.Daemon {
		if err := r.tracedDaemon(l, rec); err != nil {
			return err
		}
		// The route-side rows come from the mix's heaviest kind.
		r.W.Variant = core.FastGRH
	}
	if err := r.tracedRoute(l, rec); err != nil {
		return err
	}
	return rec.write(traceOut, stamp)
}

// ratioRounds is how many alternating rounds the ratio rows rest on. A
// round routes instance 0 once per variant, back to back — plain, under
// the benchmark's spans, on one worker, under the full internal flight
// recorder and (sharded workloads) monolithic — so that each ratio is
// taken between neighbours in time, and the median over the rounds is
// reported: the host's speed drifts by a tenth within a minute. Another
// round starts only if, at the pace of the last one, it would end inside
// ratioBudget — sharded_19m's five-op rounds stop at two — which keeps a
// traced run well inside the driver's limit for one run.
const (
	ratioRounds = 3
	ratioBudget = 80 * time.Second
)

// tracedRoute measures pool instance 0: the design rows from set-up, the
// heap of the warm-up op, ratioRounds alternating rounds for the stage
// walls and the ratio rows, then the layer replay.
func (r *run) tracedRoute(l *ledger, rec *recorder) error {
	pool, st, err := r.repeatSetup()
	if err != nil {
		return err
	}
	// Set-up handles the whole pool; the design rows are per design. Only
	// instance 0 is used from here on, so the rest of the pool is garbage.
	inst, per := pool[0], time.Duration(len(pool))
	opt := r.W.options(inst.Scale)
	l.setMs("design.generate_ms", st.Generate/per)
	l.setMs("design.write_ms", st.Write/per)
	l.setMs("design.read_ms", st.Read/per)
	l.set("design.nets", float64(len(inst.D.Nets)))

	warm, ok := r.warmUp(inst)
	if !ok {
		return nil
	}
	// variant routes instance 0 under a variation of the options. Only the
	// monolithic pipeline legitimately routes differently, so it alone is
	// fingerprinted under its own key; a failure is booked and ends the run.
	op := 0
	variant := func(rec *recorder, key string, vary func(*core.Options)) (opOut, bool) {
		o := opt
		if vary != nil {
			vary(&o)
		}
		op++
		out, err := routeOp(rec, op, inst.D, o, r.guidePath())
		return out, r.Tally.record(instKey(0)+key, fingerprintOf(out.Report), err)
	}
	if r.W.Shards > 0 {
		mono, ok := variant(nil, "/mono", func(o *core.Options) { o.Shards, o.HeapGC = 0, true })
		if !ok {
			return nil
		}
		l.set("shard.heap_ratio_vs_mono", float64(warm.Report.PeakHeapBytes)/float64(mono.Report.PeakHeapBytes))
		l.set("shard.score_ratio_vs_mono", warm.Report.Score/mono.Report.Score)
	}

	var rep core.Report
	var tracer *obs.Tracer
	var plan, pat, mz, self, build, covers, write []time.Duration
	var traceCost, speedup, obsCost, vsMono []float64
	spent := obs.StartStopwatch()
	for round := 0; round < ratioRounds && (r.Sz.MaxRounds == 0 || round < r.Sz.MaxRounds); round++ {
		if took := spent.Elapsed(); round > 0 && took+took/time.Duration(round) > ratioBudget {
			break
		}
		r.Samples = round + 1
		plain, ok := variant(nil, "", nil)
		if !ok {
			return nil
		}
		tr, ok := variant(rec, "", nil)
		if !ok {
			return nil
		}
		single, ok := variant(nil, "", func(o *core.Options) { o.ExecWorkers = 1 })
		if !ok {
			return nil
		}
		tracer = obs.NewTracer(1<<18, execWorkers)
		observed, ok := variant(nil, "", func(o *core.Options) {
			o.Obs = &obs.Observer{Metrics: obs.NewRegistry(), Health: obs.NewHealth(), Tracer: tracer}
		})
		if !ok {
			return nil
		}
		base := sec(plain.Wall)
		traceCost = append(traceCost, 100*(sec(tr.Wall)/base-1))
		speedup = append(speedup, sec(single.Wall)/base)
		obsCost = append(obsCost, 100*(sec(observed.Wall)/base-1))
		if r.W.Shards > 0 {
			mono, ok := variant(nil, "/mono", func(o *core.Options) { o.Shards = 0 })
			if !ok {
				return nil
			}
			vsMono = append(vsMono, base/sec(mono.Wall))
		}

		rep = tr.Report
		plan = append(plan, rep.Times.PlanWall)
		pat = append(pat, rep.Times.PatternWall)
		mz = append(mz, rep.Times.MazeWall)
		self = append(self, rec.dur(tr.RouteSpan)-rep.Times.WallTotal)
		build = append(build, rec.dur(tr.BuildSpan))
		covers = append(covers, rec.dur(tr.CoversSpan))
		write = append(write, rec.dur(tr.WriteSpan))
		if round == 0 {
			l.set("guide.bytes", float64(tr.GuideBytes))
			l.set("guide.count", float64(tr.GuideCount))
		}
	}
	if !r.W.Daemon { // daemon_mix books this row from its traced job blocks
		l.set("bench.trace_overhead_pct", median(traceCost))
	}
	l.set("par.speedup_w2", median(speedup))
	l.set("obs.trace_overhead_pct", median(obsCost))
	l.set("obs.spans", float64(tracer.Recorded()))

	l.setMs("core.plan_wall_ms", medianDur(plan))
	l.setMs("core.pattern_wall_ms", medianDur(pat))
	l.setMs("core.maze_wall_ms", medianDur(mz))
	l.setMs("core.self_ms", medianDur(self))
	l.set("core.nets_to_ripup", float64(rep.NetsToRipup))
	l.set("core.rrr_iters", float64(len(rep.RRR)))
	var expansions int64
	for _, it := range rep.RRR {
		expansions += it.Expansions
	}
	l.set("core.rrr_expansions", float64(expansions))
	l.set("core.pattern_batches", float64(rep.PatternBatches))
	l.set("core.hybrid_edges", float64(rep.HybridEdges))

	l.setMs("guide.build_ms", medianDur(build))
	l.setMs("guide.covers_ms", medianDur(covers))
	l.setMs("guide.write_ms", medianDur(write))

	if r.W.Shards > 0 {
		l.set("shard.boundary_reroutes", float64(rep.BoundaryReroutes))
		l.set("shard.reconcile_model", ms(rep.ReconcileTime))
		l.set("shard.wall_ratio_vs_mono", median(vsMono))
	}

	p := &replayer{rec: rec, l: l, d: inst.D, opt: opt}
	return p.run(r.Dir, r.Sz.AtomicioReps)
}
