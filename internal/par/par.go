// Package par is the harness's one worker pool: the sweep and simcheck
// both fan their independent runs across it.
package par

import (
	"runtime"
	"sync"
)

// Each calls fn(i) for every i in [0, n) across a pool of workers
// goroutines (GOMAXPROCS when workers <= 0, never more than n) and returns
// once every call has. Indices are handed out in order but complete in any
// order, so callers that need deterministic output write results into
// index-addressed slots or serialise delivery themselves.
func Each(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
