package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Registry hands out the declared counters, gauges and histograms (see
// names.go). The nil *Registry is the disabled registry: every lookup
// returns a nil handle whose methods are no-ops, so instrumented code
// needs no conditionals. Lookups take a mutex; hot paths should resolve
// their handles once and hold them (the handles themselves are
// lock-free atomics).
type Registry struct {
	mu       sync.Mutex
	counters map[*CounterDecl]*Counter
	gauges   map[*GaugeDecl]*Gauge
	hists    map[*HistogramDecl]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[*CounterDecl]*Counter{},
		gauges:   map[*GaugeDecl]*Gauge{},
		hists:    map[*HistogramDecl]*Histogram{},
	}
}

// Counter returns the declared counter, creating it on first use.
func (r *Registry) Counter(d *CounterDecl) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[d]
	if c == nil {
		c = &Counter{}
		r.counters[d] = c
	}
	return c
}

// Gauge returns the declared gauge, creating it on first use.
func (r *Registry) Gauge(d *GaugeDecl) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[d]
	if g == nil {
		g = &Gauge{}
		r.gauges[d] = g
	}
	return g
}

// Histogram returns the declared histogram, creating it over the
// declaration's bounds on first use.
func (r *Registry) Histogram(d *HistogramDecl) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[d]
	if h == nil {
		h = &Histogram{bounds: d.bounds, counts: make([]atomic.Int64, len(d.bounds)+1)}
		h.min.Store(math.MaxInt64)
		h.max.Store(math.MinInt64)
		r.hists[d] = h
	}
	return h
}

// Counter is a monotonically increasing atomic counter; nil is a no-op.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the counter (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value metric; nil is a no-op.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value reads the gauge (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram over int64 observations with
// Prometheus-style upper-bound semantics: observation v lands in the
// first bucket whose bound satisfies v <= bound, and in the implicit
// overflow bucket when v exceeds every bound. Count, sum, min and max
// are tracked exactly; nil is a no-op.
type Histogram struct {
	bounds   []int64        // the declaration's, never written
	counts   []atomic.Int64 // len(bounds)+1, last = overflow
	count    atomic.Int64
	sum      atomic.Int64
	min, max atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations so far (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running sum of observed values (0 on a nil histogram).
// Count and Sum are read independently, so a ratio taken while
// observations are in flight may be off by the in-flight values — fine
// for advisory consumers like the daemon's Retry-After estimate.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// HistSnapshot is a consistent-enough copy of a histogram for export:
// individual fields are atomically read, so a snapshot taken while
// observations are in flight may be off by the in-flight observations
// but never corrupt.
type HistSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // len(Bounds)+1, last = overflow
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Min    int64   `json:"min"` // 0 when Count == 0
	Max    int64   `json:"max"` // 0 when Count == 0
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Snapshot is a point-in-time copy of a registry, ready for export,
// keyed by dotted name.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`

	decls map[string]*Decl
}

// Decl returns the declaration of the named metric in the snapshot, nil
// for a name the snapshot does not hold.
func (s Snapshot) Decl(name string) *Decl { return s.decls[name] }

// Snapshot copies the registry's current state. A nil registry yields a
// zero snapshot with non-nil (empty) maps.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		r = NewRegistry()
	}
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
		decls:      map[string]*Decl{},
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for d, c := range r.counters {
		s.Counters[d.name] = c.Value()
		s.decls[d.name] = &d.Decl
	}
	for d, g := range r.gauges {
		s.Gauges[d.name] = g.Value()
		s.decls[d.name] = &d.Decl
	}
	for d, h := range r.hists {
		hs := HistSnapshot{
			Bounds: append([]int64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.count.Load(),
			Sum:    h.sum.Load(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		if hs.Count > 0 {
			hs.Min = h.min.Load()
			hs.Max = h.max.Load()
		}
		s.Histograms[d.name] = hs
		s.decls[d.name] = &d.Decl
	}
	return s
}
