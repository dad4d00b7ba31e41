package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestEachRunsEveryIndexOnce: every index in [0, n) runs exactly once and
// no more than the pool's size run at a time, whatever the worker count —
// more workers than indices, the GOMAXPROCS default (workers <= 0) and a
// single index included. Run it under -race: the per-index slots are read
// only after Each returns.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers, limit int }{
		{n: 5, workers: 8, limit: 5},
		{n: 100, workers: 3, limit: 3},
		{n: 100, workers: 0, limit: runtime.GOMAXPROCS(0)},
		{n: 100, workers: -2, limit: runtime.GOMAXPROCS(0)},
		{n: 1, workers: 4, limit: 1},
		{n: 1, workers: 0, limit: 1},
	} {
		calls := make([]int, tc.n)
		var active, peak atomic.Int32
		Each(tc.n, tc.workers, func(i int) {
			a := active.Add(1)
			for p := peak.Load(); a > p && !peak.CompareAndSwap(p, a); p = peak.Load() {
			}
			calls[i]++
			time.Sleep(50 * time.Microsecond) // let the workers overlap
			active.Add(-1)
		})
		for i, c := range calls {
			if c != 1 {
				t.Errorf("n=%d workers=%d: index %d ran %d times, want 1", tc.n, tc.workers, i, c)
			}
		}
		if p := int(peak.Load()); p > tc.limit {
			t.Errorf("n=%d workers=%d: %d calls ran at once, want at most %d", tc.n, tc.workers, p, tc.limit)
		}
	}
}

// TestEachZeroReturnsAtOnce: with no indices Each calls nothing, leaves
// no goroutine behind and returns (a hang fails the run's -timeout).
func TestEachZeroReturnsAtOnce(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, workers := range []int{-1, 0, 1, 8} {
		Each(0, workers, func(i int) { t.Errorf("workers=%d: fn(%d) called", workers, i) })
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before Each(0, ...), %d after", before, after)
	}
}
