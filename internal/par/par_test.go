package par

// These tests pin the contract of the forwarding For that the frozen
// e2ebench replay calls; taskflow's For tests cover the executor itself.

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 2, 7, 100, 1000} {
			hits := make([]int32, n)
			For(workers, n, func(_, i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForWorkerIDsWithinBound(t *testing.T) {
	const workers, n = 5, 300
	var bad atomic.Int32
	For(workers, n, func(w, _ int) {
		if w < 0 || w >= workers {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatal("worker id outside [0, workers)")
	}
}

// TestForWorkerScratchAffinity verifies the property core's maze scratch
// depends on: a worker id is never used by two goroutines at once, so
// scratch indexed by worker needs no locking.
func TestForWorkerScratchAffinity(t *testing.T) {
	const workers, n = 4, 2000
	inUse := make([]atomic.Int32, workers)
	var clashes atomic.Int32
	For(workers, n, func(w, _ int) {
		if inUse[w].Add(1) != 1 {
			clashes.Add(1)
		}
		inUse[w].Add(-1)
	})
	if clashes.Load() != 0 {
		t.Fatal("two goroutines shared a worker id concurrently")
	}
}

func TestForDeterministicSlotWrites(t *testing.T) {
	// Under the slot-ownership contract the output is identical for any
	// worker count.
	const n = 512
	want := make([]int, n)
	For(1, n, func(_, i int) { want[i] = i * i })
	for _, workers := range []int{2, 3, 8} {
		got := make([]int, n)
		For(workers, n, func(_, i int) { got[i] = i * i })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForClampsWorkersToN(t *testing.T) {
	// More workers than indices must not deadlock or double-visit.
	var count atomic.Int32
	For(16, 3, func(_, _ int) { count.Add(1) })
	if count.Load() != 3 {
		t.Fatalf("visited %d indices, want 3", count.Load())
	}
}

func TestForConcurrentPools(t *testing.T) {
	// Distinct calls may run concurrently without interfering.
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum := make([]int64, 100)
			For(3, 100, func(_, i int) { sum[i] = int64(i) })
			var s int64
			for _, v := range sum {
				s += v
			}
			if s != 4950 {
				t.Errorf("sum = %d, want 4950", s)
			}
		}()
	}
	wg.Wait()
}
