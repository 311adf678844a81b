// Package fault is the router's deterministic fault-injection and
// containment layer. It gives every parallel execution site — par loop
// indices, taskflow tasks, pattern-stage kernels, maze searches — a
// containment wrapper that recovers panics, retries the work unit a
// bounded number of times, and surfaces a typed WorkError when retries
// are exhausted, so a failing worker degrades one net's route instead of
// killing the process.
//
// Determinism is the design constraint everything here bends around.
// Whether a synthetic fault fires at (site, unit, attempt) is a pure
// hash of the chaos seed and those coordinates — never a stateful random
// source, whose draw order would depend on goroutine interleaving and
// therefore on the worker count. Units are worker-count-invariant
// identities (a loop index, a task id, a batch ordinal, never a chunk
// boundary), injections fire at wrapper entry (before the body has
// mutated anything, so a retry re-runs a unit that never half-executed),
// and the retry backoff counts scheduler yields instead of reading the
// wall clock. Under those rules the set of failed, retried and degraded
// units — and with it the routed output — is bit-identical at every
// ExecWorkers count, which is what lets core's chaos suite sweep worker
// counts with injection on.
//
// Accounting: every fired injection is classified exactly once —
// "recovered" when a retry follows, "degraded" when the failure is final
// (retry exhaustion, a kernel fallback, a budget trip) — so for
// injection-only fault sources the obs counters obey
//
//	fault.injected == fault.recovered + fault.degraded
//
// exactly; the chaos suite asserts that equation on every run.
package fault

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"fastgr/internal/obs"
)

// Containment sites: the per-site keys of the injection probability
// table. Each names one wrapper in the execution stack.
const (
	// SitePlan is one net's Steiner-tree build+shift in the planning loop.
	SitePlan = "plan.net"
	// SiteScan is one net's overflow check in the violating-net scan.
	SiteScan = "scan.net"
	// SiteSolve is one net's flow evaluation inside a pattern batch kernel.
	SiteSolve = "gpu.solve"
	// SiteKernel is one whole pattern-stage batch kernel; a kernel-site
	// fault falls the batch back to the CPU baseline path.
	SiteKernel = "gpu.kernel"
	// SiteTask is one rip-up-and-reroute task, keyed by its task ID.
	SiteTask = "rrr.task"
	// SiteBudget is one net's maze expansion budget; a budget-site fault
	// makes the net keep its pattern route.
	SiteBudget = "maze.budget"
)

// Sites lists every containment site, the keys UniformProbs fills.
var Sites = []string{SitePlan, SiteScan, SiteSolve, SiteKernel, SiteTask, SiteBudget}

// DefaultMaxAttempts bounds a work unit's tries (first run + retries)
// when Options does not say otherwise.
const DefaultMaxAttempts = 3

// Options configures the containment layer for one routing run.
type Options struct {
	// Seed drives the injection hash; runs with equal (seed, probs,
	// workload) fire identical fault sets at every worker count.
	Seed int64
	// MaxAttempts bounds per-unit tries (first run + retries); 0 means
	// DefaultMaxAttempts.
	MaxAttempts int
	// Probs is the per-site injection probability table in [0, 1].
	// Missing or zero entries never fire; an empty table arms containment
	// with injection off — the production mode.
	Probs map[string]float64
}

// UniformProbs returns a table firing with probability p at every site.
func UniformProbs(p float64) map[string]float64 {
	m := make(map[string]float64, len(Sites))
	for _, s := range Sites {
		m[s] = p
	}
	return m
}

// ErrInjected is the cause recorded for injector-fired synthetic faults.
var ErrInjected = errors.New("injected fault")

// PanicError carries a recovered panic value as an error.
type PanicError struct{ Value any }

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// WorkError is the typed, terminal failure of one work unit: its
// containment attempts are exhausted (Contained) or its body returned an
// error of its own (un-Contained, never retried). It is the value that
// surfaces instead of a process crash.
type WorkError struct {
	Site     string
	Unit     int
	Attempts int
	// Contained reports the failure came from the containment layer (an
	// injected fault or a recovered panic) rather than from the unit body
	// returning an error deliberately.
	Contained bool
	Cause     error
}

func (e *WorkError) Error() string {
	return fmt.Sprintf("fault: %s unit %d failed after %d attempt(s): %v",
		e.Site, e.Unit, e.Attempts, e.Cause)
}

func (e *WorkError) Unwrap() error { return e.Cause }

// Injector decides whether a synthetic fault fires at a coordinate. A
// nil Injector never fires.
type Injector struct {
	seed  int64
	probs map[string]float64
}

// NewInjector builds an injector from a probability table; zero and
// negative entries are dropped, and an effectively empty table yields
// nil (injection off).
func NewInjector(seed int64, probs map[string]float64) *Injector {
	m := make(map[string]float64, len(probs))
	for site, p := range probs {
		if p > 0 {
			m[site] = p
		}
	}
	if len(m) == 0 {
		return nil
	}
	return &Injector{seed: seed, probs: m}
}

// Fire reports whether a synthetic fault fires at (site, unit, attempt).
// The decision is a pure function of the seed and the coordinates —
// independent of call order, goroutine interleaving and worker count.
func (in *Injector) Fire(site string, unit, attempt int) bool {
	if in == nil {
		return false
	}
	p, ok := in.probs[site]
	if !ok {
		return false
	}
	h := mix(uint64(in.seed) ^ hashString(site))
	h = mix(h + uint64(int64(unit))*0x9e3779b97f4a7c15)
	h = mix(h + uint64(int64(attempt))*0xbf58476d1ce4e5b9)
	// Top 53 bits to a uniform float in [0, 1).
	return float64(h>>11)/(1<<53) < p
}

// hashString is FNV-1a, the stdlib-free way to fold a site name into the
// injection hash.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix is the splitmix64 finalizer: a full-avalanche bijection, so
// nearby coordinates decorrelate.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SiteStats is one containment site's accounting: how many faults were
// injected there, how many contained failures a retry recovered, how
// many degraded into a final fallback, and how many retries ran. For a
// fixed (seed, probs, workload) the numbers are deterministic at every
// worker count, like the run-level FaultStats they decompose.
type SiteStats struct {
	Injected  int64 `json:"injected"`
	Recovered int64 `json:"recovered"`
	Degraded  int64 `json:"degraded"`
	Retries   int64 `json:"retries"`
}

// siteCounters is the live per-site accounting behind Snapshot. One
// fixed struct per known site, built at New — wrappers only ever load a
// pointer from a read-only map, so the hot path stays lock-free.
type siteCounters struct {
	injected, recovered, degraded, retries atomic.Int64
}

// Containment is the armed layer: injector, retry bound and resolved
// observability handles. The nil Containment is the disabled layer —
// every method is nil-safe and Run degenerates to calling the body.
type Containment struct {
	inj  *Injector
	max  int
	seed int64

	// sites holds the per-site accounting; the map is built once at New
	// over the Sites list and never mutated afterwards, so concurrent
	// wrappers read it without locking.
	sites map[string]*siteCounters

	tr        *obs.Tracer
	injected  *obs.Counter
	recovered *obs.Counter
	degraded  *obs.Counter
	retries   *obs.Counter
}

// New builds the containment layer from options, resolving the obs
// handles once so wrappers never touch the registry lock.
func New(opt Options, o *obs.Observer) *Containment {
	max := opt.MaxAttempts
	if max < 1 {
		max = DefaultMaxAttempts
	}
	c := &Containment{
		inj:   NewInjector(opt.Seed, opt.Probs),
		max:   max,
		seed:  opt.Seed,
		sites: make(map[string]*siteCounters, len(Sites)),
		tr:    o.T(),
	}
	for _, s := range Sites {
		c.sites[s] = &siteCounters{}
	}
	if m := o.M(); m != nil {
		c.injected = m.Counter(obs.MFaultInjected)
		c.recovered = m.Counter(obs.MFaultRecovered)
		c.degraded = m.Counter(obs.MFaultDegraded)
		c.retries = m.Counter(obs.MFaultRetries)
	}
	return c
}

// Enabled reports whether containment is armed; nil is the disabled
// layer.
func (c *Containment) Enabled() bool { return c != nil }

// site returns the per-site counters, nil (a no-op via the atomic
// methods' receivers never being called) for sites outside the Sites
// list — callers always pass a Sites constant today.
func (c *Containment) site(name string) *siteCounters {
	if c == nil {
		return nil
	}
	return c.sites[name]
}

func (sc *siteCounters) addInjected(n int64) {
	if sc != nil {
		sc.injected.Add(n)
	}
}

func (sc *siteCounters) addRecovered(n int64) {
	if sc != nil {
		sc.recovered.Add(n)
	}
}

func (sc *siteCounters) addDegraded(n int64) {
	if sc != nil {
		sc.degraded.Add(n)
	}
}

func (sc *siteCounters) addRetries(n int64) {
	if sc != nil {
		sc.retries.Add(n)
	}
}

// Snapshot copies the per-site containment accounting: a map from site
// name to its counters, omitting sites that saw no events. Callers use
// it to attribute a run's FaultStats to the execution sites that
// produced them (the daemon reports it per job); nil containment yields
// a nil map. The counts are deterministic for a fixed (seed, probs,
// workload) — reading them mid-run only risks missing in-flight events,
// never corruption.
func (c *Containment) Snapshot() map[string]SiteStats {
	if c == nil {
		return nil
	}
	out := make(map[string]SiteStats)
	for name, sc := range c.sites {
		st := SiteStats{
			Injected:  sc.injected.Load(),
			Recovered: sc.recovered.Load(),
			Degraded:  sc.degraded.Load(),
			Retries:   sc.retries.Load(),
		}
		if st != (SiteStats{}) {
			out[name] = st
		}
	}
	return out
}

// MaxAttempts reports the per-unit attempt bound (1 when disabled).
func (c *Containment) MaxAttempts() int {
	if c == nil {
		return 1
	}
	return c.max
}

// Run executes one retryable work unit under containment: panics and
// injected faults are recovered and the unit retried up to the attempt
// bound, with a deterministic seed-derived backoff between tries;
// exhaustion returns a *WorkError. An error returned by fn itself is the
// unit's deliberate outcome — passed through verbatim, never retried.
// The worker id only labels the trace lane; it never feeds the injection
// decision.
func (c *Containment) Run(site string, unit, worker int, fn func() error) error {
	if c == nil {
		return fn()
	}
	for attempt := 0; ; attempt++ {
		err, contained := c.attempt(site, unit, attempt, worker, fn)
		if err == nil || !contained {
			return err
		}
		if attempt+1 >= c.max {
			c.degraded.Add(1)
			c.site(site).addDegraded(1)
			return &WorkError{Site: site, Unit: unit, Attempts: attempt + 1, Contained: true, Cause: err}
		}
		c.recovered.Add(1)
		c.retries.Add(1)
		sc := c.site(site)
		sc.addRecovered(1)
		sc.addRetries(1)
		c.backoff(site, unit, attempt)
	}
}

// RunOnce is Run for units whose contained failure is final rather than
// retried — the batch kernel, which degrades to the CPU fallback path on
// its first fault.
func (c *Containment) RunOnce(site string, unit, worker int, fn func() error) error {
	if c == nil {
		return fn()
	}
	err, contained := c.attempt(site, unit, 0, worker, fn)
	if err == nil || !contained {
		return err
	}
	c.degraded.Add(1)
	c.site(site).addDegraded(1)
	return &WorkError{Site: site, Unit: unit, Attempts: 1, Contained: true, Cause: err}
}

// InjectBudget reports whether a synthetic budget exhaustion fires for
// the unit. A budget fault is final by construction (the caller keeps
// the net's pattern route), so it counts as injected and degraded at
// once, keeping the accounting equation exact.
func (c *Containment) InjectBudget(unit, worker int) bool {
	if c == nil || !c.inj.Fire(SiteBudget, unit, 0) {
		return false
	}
	c.injected.Add(1)
	c.degraded.Add(1)
	sc := c.site(SiteBudget)
	sc.addInjected(1)
	sc.addDegraded(1)
	c.trace(SiteBudget, worker)
	return true
}

// Degrade records n organic (non-injected) degradations at a site —
// real budget trips. These sit outside the injection accounting
// equation, which is why the chaos suite injects budget faults instead
// of configuring a tight real budget.
func (c *Containment) Degrade(site string, n int64) {
	if c == nil {
		return
	}
	c.degraded.Add(n)
	c.site(site).addDegraded(n)
}

// attempt runs fn once behind the recover barrier, firing any injected
// fault at entry — before the body has executed, so a retried unit never
// half-ran. contained marks the retryable failure class (injection or
// panic); fn's own errors pass through un-contained.
func (c *Containment) attempt(site string, unit, attempt, worker int, fn func() error) (err error, contained bool) {
	if c.inj.Fire(site, unit, attempt) {
		c.injected.Add(1)
		c.site(site).addInjected(1)
		c.trace(site, worker)
		return ErrInjected, true
	}
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v}
			contained = true
			c.trace(site, worker)
		}
	}()
	return fn(), false
}

// trace drops a marker span on the worker's lane so contained faults are
// visible on the timeline. Free when tracing is off.
func (c *Containment) trace(site string, worker int) {
	if c.tr.On() {
		c.tr.StartSpan("fault:"+site, worker).End()
	}
}

// backoff orders retry pressure deterministically without the wall
// clock: a seed-derived number of scheduler yields, growing with the
// attempt. Yields cannot change results (unit bodies are interleaving-
// independent); they only de-synchronize retry storms.
func (c *Containment) backoff(site string, unit, attempt int) {
	h := mix(uint64(c.seed) ^ hashString(site) ^ uint64(int64(unit))*0x9e3779b97f4a7c15)
	n := attempt + int(h>>62) // 0..3 seed-derived extra yields
	for i := 0; i <= n; i++ {
		runtime.Gosched()
	}
}

// SortWorkErrors orders terminal unit errors by (site, unit) so callers
// report failures deterministically at any worker count.
func SortWorkErrors(errs []*WorkError) {
	for i := 1; i < len(errs); i++ {
		for j := i; j > 0 && less(errs[j], errs[j-1]); j-- {
			errs[j], errs[j-1] = errs[j-1], errs[j]
		}
	}
}

func less(a, b *WorkError) bool {
	if a.Site != b.Site {
		return a.Site < b.Site
	}
	return a.Unit < b.Unit
}
