// Package par provides the host-parallel execution primitives the router's
// hot paths share: a bounded worker pool running a deterministic parallel-for
// with per-worker scratch affinity.
//
// The contract that keeps parallel runs bit-identical to sequential ones is
// the caller's: the body invoked for index i may only write state owned by i
// (its own result slot, grid cells inside its private window) plus scratch
// keyed by the worker id it receives. Under that contract the outcome is a
// pure function of the input regardless of how indices interleave across
// goroutines, so none of the modeled times or routing results may change
// with the worker count — only wall-clock does. Package core's determinism
// suite sweeps worker counts to enforce exactly that.
package par

import (
	"sync"
	"sync/atomic"
	"time"

	"fastgr/internal/fault"
	"fastgr/internal/obs"
)

// Pool is a bounded parallel-for executor. The zero value is unusable; build
// one with NewPool. A Pool carries no goroutines between calls — bounding
// means a call to For never runs more than Workers goroutines at once, so a
// caller can size scratch as one object per worker id.
type Pool struct {
	workers int

	// Observability handles, resolved once by SetObserver so the chunk
	// loop never takes the registry lock. All are nil in disabled mode,
	// where the per-chunk cost is two nil checks.
	tr   *obs.Tracer
	wait *obs.Histogram
	run  *obs.Histogram

	// fc is the fault-containment layer ForUnits bodies run under; nil
	// (the default) is the uncontained mode, where ForUnits calls bodies
	// directly.
	fc *fault.Containment

	// lane offsets the tracer lane of this pool's chunk spans. A nested
	// sub-pool (the rip-up stage runs one per executor slot) sets it to
	// the slot's first composite lane so its workers' spans and fault
	// markers land on lanes disjoint from every sibling slot's. It shifts
	// only where spans are drawn; fn still receives the raw worker id.
	lane int
}

// NewPool returns a pool of at least one worker.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// Workers reports the pool's worker bound.
func (p *Pool) Workers() int { return p.workers }

// SetLane sets the tracer-lane base for this pool's chunk spans and
// ForUnits fault markers (see the lane field). Call before sharing the
// pool across goroutines.
func (p *Pool) SetLane(base int) { p.lane = base }

// SetObserver attaches (or, with nil, detaches) the flight recorder:
// each claimed chunk then records a span on its worker's lane plus its
// claim latency and run duration. Call before sharing the pool across
// goroutines; observation never changes scheduling or results.
func (p *Pool) SetObserver(o *obs.Observer) {
	p.tr = o.T()
	p.wait = o.M().Histogram(obs.MParWaitNs, obs.DurationBuckets)
	p.run = o.M().Histogram(obs.MParRunNs, obs.DurationBuckets)
}

// For runs fn(worker, i) for every i in [0, n). At most p.Workers()
// goroutines run concurrently; the worker argument is in [0, p.Workers())
// and identifies the goroutine, so fn may use it to index per-worker scratch
// without locking. Indices are claimed in contiguous chunks from a shared
// counter (work-stealing by chunk), which balances skewed per-index costs
// without a scheduler thread.
func (p *Pool) For(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	observing := p.tr.On() || p.wait != nil
	var forStart time.Time
	if observing {
		forStart = time.Now()
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers == 1 {
		if observing {
			sp := p.tr.StartSpan("par.chunk", p.lane)
			for i := 0; i < n; i++ {
				fn(0, i)
			}
			sp.End()
			p.wait.Observe(0)
			p.run.Observe(time.Since(forStart).Nanoseconds())
			return
		}
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	// Chunked claiming keeps the atomic counter off the hot path while still
	// letting fast workers absorb the tail of slow ones.
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				var chunkStart time.Time
				var sp obs.Span
				if observing {
					chunkStart = time.Now()
					sp = p.tr.StartSpan("par.chunk", p.lane+worker)
				}
				for i := start; i < end; i++ {
					fn(worker, i)
				}
				if observing {
					sp.End()
					p.wait.Observe(chunkStart.Sub(forStart).Nanoseconds())
					p.run.Observe(time.Since(chunkStart).Nanoseconds())
				}
			}
		}(w)
	}
	wg.Wait()
}

// SetFault attaches (or, with nil, detaches) the fault-containment
// layer for subsequent ForUnits calls. Call before sharing the pool
// across goroutines.
func (p *Pool) SetFault(c *fault.Containment) { p.fc = c }

// ForUnits is For for fallible work units: fn(worker, i) runs for every
// i in [0, n) under the pool's containment layer (when armed), so a
// panicking or injected-faulty unit is retried and, on exhaustion,
// collected instead of crashing the process. The returned slice holds
// the terminal failures sorted by unit index — nil when every unit
// succeeded — so callers observe an identical failure set at every
// worker count. A unit body returning its own error is collected
// un-contained without retry; the unit index, never the chunk layout,
// keys the injection decision.
func (p *Pool) ForUnits(site string, n int, fn func(worker, i int) error) []*fault.WorkError {
	var mu sync.Mutex
	var errs []*fault.WorkError
	p.For(n, func(worker, i int) {
		var err error
		if p.fc.Enabled() {
			err = p.fc.Run(site, i, p.lane+worker, func() error { return fn(worker, i) })
		} else {
			err = fn(worker, i)
		}
		if err == nil {
			return
		}
		we, ok := err.(*fault.WorkError)
		if !ok {
			we = &fault.WorkError{Site: site, Unit: i, Attempts: 1, Cause: err}
		}
		mu.Lock()
		errs = append(errs, we)
		mu.Unlock()
	})
	if len(errs) == 0 {
		return nil
	}
	fault.SortWorkErrors(errs)
	return errs
}

// For is the one-shot convenience: NewPool(workers).For(n, fn).
func For(workers, n int, fn func(worker, i int)) {
	NewPool(workers).For(n, fn)
}
