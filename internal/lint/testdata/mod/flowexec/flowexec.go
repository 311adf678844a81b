// Package flowexec is the fixture executor: the flow policy names Run a
// spawn entry point, so its callback argument becomes a worker root for
// the shardisolation reachability closure. It runs serially — worker
// context is a policy notion, not a goroutine one.
package flowexec

// Run invokes fn once per index, standing in for the executor's chunk
// dispatch.
func Run(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}
