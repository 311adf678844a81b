// Package par keeps the parallel-for entry point that predates the one
// executor (internal/taskflow). It holds no type and starts no goroutine
// of its own: For forwards to taskflow.For. Only the frozen cmd/e2ebench
// replay calls it; new code calls taskflow.For.
package par

import "fastgr/internal/taskflow"

// For runs fn(worker, i) for every i in [0, n) on at most workers
// goroutines, unobserved: taskflow.For with an infallible body. The worker
// argument is in [0, workers) and names one goroutine for the whole call.
func For(workers, n int, fn func(worker, i int)) {
	// The body never fails, so For returns nil.
	_ = taskflow.For(workers, n, nil, func(worker, i int) error {
		fn(worker, i)
		return nil
	})
}
