package main

import "testing"

// TestDriftPct: a gated row's drift is a share of its limit, so a metric
// crossing zero does not read as a huge relative move, while a real move
// on a tight gate still warns; a report-only row keeps relative drift.
func TestDriftPct(t *testing.T) {
	gated := gate{metric: "overhead_pct", limit: "max_overhead_pct", dir: atMost}
	floor := gate{metric: "rate", limit: "min_rate", dir: atLeast}
	report := gate{metric: "hot_ratio", dir: atMost}
	for _, c := range []struct {
		name           string
		g              gate
		cur, prev, lim float64
		drift          float64
		warn           bool
	}{
		// A -1.008% overhead becoming 0.008% on the 5% serve gate: 1.016
		// points, a fifth of the limit. Relative to the baseline it read
		// as a 100.8% drift.
		{"near zero", gated, 0.008, -1.008, 5, 20.32, false},
		{"two points on a 5% gate", gated, 3, 1, 5, 40, true},
		{"improvement", gated, 1, 3, 5, -40, false},
		{"at-least gate falling", floor, 6, 10, 8, 50, true},
		{"report-only", report, 1.5, 1.0, 0, 50, true},
		{"report-only small", report, 1.1, 1.0, 0, 10, false},
	} {
		d, ok := driftPct(c.g, c.cur, c.prev, c.lim)
		if !ok || d < c.drift-1e-9 || d > c.drift+1e-9 {
			t.Errorf("%s: drift %v (ok %v), want %v", c.name, d, ok, c.drift)
		}
		if warn := d > driftWarnPct; warn != c.warn {
			t.Errorf("%s: drift %.2f%% warns %v, want %v", c.name, d, warn, c.warn)
		}
	}
	if _, ok := driftPct(report, 1, 0, 0); ok {
		t.Error("a report-only row with a zero baseline has no drift scale")
	}
}
