// Package flowwall is detwall-exempt, like obs/cmd in the real
// tree: it may read the wall clock. The walltaint fixtures pin the
// loophole the flow engine closes — exemption does not license letting
// wall-derived values flow into sink-package data.
package flowwall

import (
	"time"

	"fixture/flowsink"
)

// wallMs reads the wall clock; legal here, and the helper hop is what
// makes every flow below interprocedural.
func wallMs(start time.Time) float64 {
	return float64(time.Since(start).Milliseconds())
}

// FireField stores a wall-derived value in a sink-struct field.
func FireField() flowsink.Report {
	start := time.Now()
	var r flowsink.Report
	r.Score = int(wallMs(start))
	return r
}

// FireLit stores a wall-derived value through a keyed composite
// literal.
func FireLit() flowsink.Report {
	start := time.Now()
	return flowsink.Report{Score: int(wallMs(start))}
}

// FireArg passes a wall-derived value into a sink-package function.
func FireArg() float64 {
	start := time.Now()
	return flowsink.Consume(wallMs(start))
}

// CleanSanctioned routes host wall time through the declared wall
// column: the one sanctioned way across the boundary.
func CleanSanctioned() flowsink.Report {
	start := time.Now()
	var r flowsink.Report
	r.WallMs = wallMs(start)
	r.Score = len("deterministic")
	return r
}

// Suppressed pins that a justified declassification is possible.
func Suppressed() flowsink.Report {
	start := time.Now()
	var r flowsink.Report
	//lint:ignore walltaint fixture: deliberate wall value in a sink field, pinned by the golden file
	r.Score = int(wallMs(start))
	return r
}
