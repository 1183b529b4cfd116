// Package par provides small bounded-parallelism helpers used across the
// solver, simulator, and experiment harness. Work is distributed over a
// fixed pool of goroutines fed by a channel, following the
// share-memory-by-communicating style.
package par

import (
	"runtime"
	"sync"
)

// ForEach runs fn(i) for every i in [0,n) using up to workers goroutines
// (or GOMAXPROCS when workers <= 0). It returns when all calls complete.
// fn must be safe to call concurrently for distinct i.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// Map runs fn(i) for every i in [0,n) in parallel and collects the results
// in order. It is a convenience wrapper over ForEach.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, workers, func(i int) {
		out[i] = fn(i)
	})
	return out
}
