package obs

import (
	"sync"
	"testing"
)

// Test declarations, outside the table (see names.go).
var (
	testCounter = &CounterDecl{Decl{name: "c", kind: "counter"}}
	testGauge   = &GaugeDecl{Decl{name: "g", kind: "gauge"}}
)

func testHistogram(bounds ...int64) *HistogramDecl {
	return &HistogramDecl{Decl{name: "h", kind: "histogram", bounds: bounds}}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(testCounter)
	c.Add(2)
	c.Add(3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter(testCounter) != c {
		t.Fatal("same declaration must return the same counter")
	}
	g := r.Gauge(testGauge)
	g.Set(7)
	g.Set(4)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilRegistryHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter(testCounter)
	g := r.Gauge(testGauge)
	h := r.Histogram(testHistogram(pow2Buckets(1, 4)...))
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Add(1)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil handles must read zero")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// TestHistogramBucketBoundaries pins the upper-bound (v <= bound)
// semantics at every edge, including the implicit overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(testHistogram(10, 100, 1000))
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0},   // below everything → first bucket
		{0, 0},    // zero → first bucket
		{10, 0},   // exactly on a bound → that bucket
		{11, 1},   // just above a bound → next bucket
		{100, 1},  // second bound edge
		{101, 2},  // just above second bound
		{1000, 2}, // last bound edge
		{1001, 3}, // above every bound → overflow bucket
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := r.Snapshot().Histograms["h"]
	wantCounts := []int64{3, 2, 2, 1}
	for i, want := range wantCounts {
		if s.Counts[i] != want {
			t.Errorf("bucket %d count = %d, want %d (counts %v)", i, s.Counts[i], want, s.Counts)
		}
	}
	if s.Count != int64(len(cases)) {
		t.Errorf("count = %d, want %d", s.Count, len(cases))
	}
	if s.Min != -5 || s.Max != 1001 {
		t.Errorf("min/max = %d/%d, want -5/1001", s.Min, s.Max)
	}
	var sum int64
	for _, c := range cases {
		sum += c.v
	}
	if s.Sum != sum {
		t.Errorf("sum = %d, want %d", s.Sum, sum)
	}
}

func TestHistogramReregisterSameBoundsOK(t *testing.T) {
	r := NewRegistry()
	d := testHistogram(1, 2, 3)
	if r.Histogram(d) != r.Histogram(d) {
		t.Fatal("same declaration must return the same histogram")
	}
}

func TestEmptyHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Histogram(testHistogram(1))
	s := r.Snapshot().Histograms["h"]
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.Mean() != 0 {
		t.Fatalf("empty histogram snapshot = %+v, want zeros", s)
	}
}

// TestConcurrentIncrements exercises counters, gauges and histogram
// min/max CAS loops under the race detector.
func TestConcurrentIncrements(t *testing.T) {
	const workers, per = 8, 1000
	r := NewRegistry()
	c := r.Counter(testCounter)
	h := r.Histogram(testHistogram(pow2Buckets(1, 12)...))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(1)
				h.Observe(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	s := r.Snapshot().Histograms["h"]
	if s.Count != workers*per {
		t.Fatalf("histogram count = %d, want %d", s.Count, workers*per)
	}
	if s.Min != 0 || s.Max != workers*per-1 {
		t.Fatalf("min/max = %d/%d, want 0/%d", s.Min, s.Max, workers*per-1)
	}
}

func TestPow2Buckets(t *testing.T) {
	got := pow2Buckets(16, 4)
	want := []int64{16, 32, 64, 128}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pow2Buckets = %v, want %v", got, want)
		}
	}
	if b := pow2Buckets(0, 2); b[0] != 1 || b[1] != 2 {
		t.Fatalf("pow2Buckets with lo<1 should clamp to 1, got %v", b)
	}
}

func TestObserverNilSafety(t *testing.T) {
	var o *Observer
	if o.T() != nil || o.M() != nil || o.H() != nil {
		t.Fatal("nil observer must be fully inert")
	}
	o = &Observer{Metrics: NewRegistry()}
	if o.M() == nil || o.T() != nil {
		t.Fatal("metrics-only observer: registry set, tracer nil")
	}
}
