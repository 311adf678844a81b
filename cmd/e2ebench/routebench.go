package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"fastgr/internal/design"
	"fastgr/internal/obs"
)

// run is the state of one workload run.
type run struct {
	W       workload
	Sz      sizing
	Seed    int64
	Seconds float64
	// Dir is the scratch directory inside the checkout: guide files, the
	// daemon's state directory, atomicio probes.
	Dir string

	Tally *tally
	// Samples states how many timed ops the medians rest on (traced run:
	// how many alternating rounds the ratio rows rest on).
	Samples int
	Stamp   workloadStamp
}

// setupTimes are the sub-steps of one set-up repetition.
type setupTimes struct {
	Total, Generate, Write, Read time.Duration
}

// setupInstance is what `fastgr -in` pays before it can route pool member
// k: generate it, serialize it, parse it back and validate it. The
// instance returned is the parsed one, so the program under test sees
// exactly what a design file would give it.
func (r *run) setupInstance(k int) (instance, setupTimes, error) {
	var st setupTimes
	sw := obs.StartStopwatch()
	inst, err := r.W.generate(r.Sz, k)
	if err != nil {
		return inst, st, err
	}
	st.Generate = sw.Elapsed()

	sw = obs.StartStopwatch()
	var buf bytes.Buffer
	if err := design.Write(&buf, inst.D); err != nil {
		return inst, st, err
	}
	st.Write = sw.Elapsed()

	sw = obs.StartStopwatch()
	back, err := design.Read(&buf)
	if err != nil {
		return inst, st, fmt.Errorf("re-read %s@%v: %w", r.W.Design, inst.Scale, err)
	}
	if err := back.Validate(); err != nil {
		return inst, st, err
	}
	st.Read = sw.Elapsed()
	if len(back.Nets) != len(inst.D.Nets) {
		return inst, st, fmt.Errorf("design round trip lost nets: %d != %d", len(back.Nets), len(inst.D.Nets))
	}
	inst.D = back
	return inst, st, nil
}

// setupPool is one set-up repetition of a route workload: every pool
// instance through setupInstance.
func (r *run) setupPool() ([]instance, setupTimes, error) {
	var st setupTimes
	total := obs.StartStopwatch()
	pool := make([]instance, r.Sz.Pool)
	for k := range pool {
		inst, one, err := r.setupInstance(k)
		if err != nil {
			return nil, st, err
		}
		pool[k] = inst
		st.Generate += one.Generate
		st.Write += one.Write
		st.Read += one.Read
	}
	st.Total = total.Elapsed()
	return pool, st, nil
}

// repeatSetup repeats set-up until SetupSeconds are spent, at least
// SetupReps times, and keeps the last pool; the medians of the repetitions
// are what the run reports. Like an op, a repetition starts from a
// collected heap, so it never pays for the previous one's garbage.
func (r *run) repeatSetup() ([]instance, setupTimes, error) {
	var pool []instance
	var totals, gens, writes, reads []time.Duration
	spent := obs.StartStopwatch()
	for i := 0; i < r.Sz.SetupReps || spent.Elapsed().Seconds() < r.Sz.SetupSeconds; i++ {
		pool = nil
		runtime.GC()
		p, st, err := r.setupPool()
		if err != nil {
			return nil, setupTimes{}, err
		}
		pool = p
		totals = append(totals, st.Total)
		gens = append(gens, st.Generate)
		writes = append(writes, st.Write)
		reads = append(reads, st.Read)
	}
	d := pool[0].D
	r.Stamp = workloadStamp{
		Design: d.Name, Scale: pool[0].Scale, Nets: len(d.Nets),
		GridW: d.GridW, GridH: d.GridH, Layers: d.NumLayers, Pool: len(pool),
	}
	return pool, setupTimes{medianDur(totals), medianDur(gens), medianDur(writes), medianDur(reads)}, nil
}

// timedRounds calls round until -seconds is used up and returns the wall
// of the loop: whole rounds only, at least one, and another starts only if
// at least half of the last one still fits.
func (r *run) timedRounds(round func(i int)) time.Duration {
	loop := obs.StartStopwatch()
	for i := 0; ; i++ {
		sw := obs.StartStopwatch()
		round(i)
		if left := r.Seconds - loop.Elapsed().Seconds(); left < sw.Elapsed().Seconds()/2 {
			break
		}
		if r.Sz.MaxRounds > 0 && i+1 >= r.Sz.MaxRounds {
			break
		}
	}
	return loop.Elapsed()
}

func (r *run) guidePath() string { return filepath.Join(r.Dir, "op.guides") }

// instKey names a pool member in the determinism tally.
func instKey(k int) string { return fmt.Sprintf("instance[%d]", k) }

// warmUp routes inst once, untimed, with HeapGC on: it faults the heap in
// before anything is timed and its PeakHeapBytes (live bytes at stage
// boundaries) is the run's peak_heap_mb. The caller keeps nothing else
// alive across it — no pool, no earlier result — so the reading is the
// router's own heap plus this one design. Its output is verified and
// fingerprinted like any other op.
func (r *run) warmUp(inst instance) (opOut, bool) {
	opt := r.W.options(inst.Scale)
	opt.HeapGC = true
	out, err := routeOp(nil, 0, inst.D, opt, r.guidePath())
	ok := r.Tally.record(instKey(0), fingerprintOf(out.Report), err)
	return out, ok
}

// routeEndToEnd is the untraced run of a route workload: one warm-up op on
// instance 0 alone, set-up of the pool, then whole rounds over the pool —
// each round routes every instance once in a seed-drawn order — until
// -seconds is used up. No rep is discarded.
//
// The pool's instances are unlike (their op walls differ by half), so no
// statistic is taken across them: each instance's walls and CPU times are
// reduced to their median over the rounds first, and the run reports the
// mean of those medians over the pool. Every op of a round contributes.
func (r *run) routeEndToEnd(l *ledger) error {
	first, _, err := r.setupInstance(0)
	if err != nil {
		return err
	}
	warm, ok := r.warmUp(first)
	if !ok {
		return nil // booked as a failed op; the run exits non-zero
	}
	pool, st, err := r.repeatSetup()
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(r.Seed))
	walls := make([][]float64, len(pool))
	cpus := make([][]float64, len(pool))
	var ops, nets int
	var wallSum, score float64
	var modeled time.Duration
	r.timedRounds(func(round int) {
		for _, k := range roundOrder(rng, len(pool)) {
			inst := pool[k]
			out, err := routeOp(nil, ops+1, inst.D, r.W.options(inst.Scale), r.guidePath())
			if !r.Tally.record(instKey(k), fingerprintOf(out.Report), err) {
				continue
			}
			walls[k] = append(walls[k], sec(out.Wall))
			cpus[k] = append(cpus[k], sec(out.CPU))
			ops++
			nets += out.Nets
			wallSum += sec(out.Wall)
			if round == 0 {
				score += out.Report.Score
				modeled += out.Report.Times.Total
			}
		}
	})
	if r.Tally.Failed > 0 {
		return nil
	}
	r.Samples = ops

	wallOf, cpuOf := make([]float64, len(pool)), make([]float64, len(pool))
	for k := range pool {
		wallOf[k], cpuOf[k] = median(walls[k]), median(cpus[k])
	}
	l.set("setup_s", sec(st.Total))
	l.set("route_wall_s", sum(wallOf)/float64(len(pool)))
	l.set("route_cpu_s", sum(cpuOf)/float64(len(pool)))
	l.set("peak_heap_mb", float64(warm.Report.PeakHeapBytes)/(1<<20))
	l.set("quality_score", score)
	l.set("modeled_total", ms(modeled))
	l.set("nets_per_s", float64(nets)/wallSum)
	l.set("jobs_per_s", float64(ops)/wallSum)
	l.set("job_p95_s", percentile(wallOf, 0.95))
	return nil
}
