// Package obs is the router's flight recorder: a lightweight span tracer
// with a bounded in-memory ring buffer and a Chrome trace_event exporter
// (one lane per executor worker, one for the pipeline stages), plus a
// metrics registry of atomic counters, gauges and fixed-bucket histograms
// whose every metric is declared once, in names.go.
//
// Observability is strictly passive. The determinism contract of the
// executor (see package taskflow) extends to this package: recording
// spans or metrics must never change routed geometry, modeled times or
// reported quality at any worker count — instrumentation reads the
// wall clock, and the wall clock never feeds a reported metric.
//
// Disabled mode is the common case and is engineered to be free: every
// handle type (*Tracer, *Registry, *Counter, *Gauge, *Histogram, the
// zero Span) is nil-safe, so instrumented call sites hold possibly-nil
// handles and call them unconditionally. The hot-path cost of a disabled
// site is a nil check, or — when a Tracer is installed but switched off —
// one atomic load. cmd/benchgen -obs proves the end-to-end overhead on
// the pattern-stage benchmark stays under 2%.
package obs

// Observer bundles the observability sinks. A nil *Observer is the
// disabled mode; every field is optional, so a caller can trace without
// metrics or vice versa.
type Observer struct {
	Tracer  *Tracer
	Metrics *Registry
	// Health, when non-nil, receives stage-level liveness beats for the
	// ops server's /healthz endpoint.
	Health *Health
}

// T returns the tracer, nil-safely: a nil observer has a nil tracer.
func (o *Observer) T() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// M returns the metrics registry, nil-safely.
func (o *Observer) M() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// H returns the health tracker, nil-safely.
func (o *Observer) H() *Health {
	if o == nil {
		return nil
	}
	return o.Health
}
