package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAll(t *testing.T) {
	const n = 1000
	var hits [n]int32
	ForEach(n, 4, func(i int) {
		atomic.AddInt32(&hits[i], 1)
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	called := false
	ForEach(0, 4, func(i int) { called = true })
	ForEach(-3, 4, func(i int) { called = true })
	if called {
		t.Fatal("fn must not run for n <= 0")
	}
}

func TestForEachSingleWorkerIsSerial(t *testing.T) {
	order := make([]int, 0, 10)
	ForEach(10, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial path out of order: %v", order)
		}
	}
}

func TestForEachDefaultWorkers(t *testing.T) {
	var count int64
	ForEach(100, 0, func(i int) { atomic.AddInt64(&count, 1) })
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
}

func TestMapOrder(t *testing.T) {
	out := Map(50, 8, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("Map[%d] = %d", i, v)
		}
	}
}

// TestForEachStress hammers the pool from many concurrent callers with
// oversubscribed workers and uneven task sizes — the shape that exposes
// lost-wakeup, double-dispatch, and off-by-one races under -race.
func TestForEachStress(t *testing.T) {
	const (
		callers = 16
		n       = 2048
	)
	var wg sync.WaitGroup
	var inFlight, peak int64
	for c := 0; c < callers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			hits := make([]int32, n)
			workers := 1 + c%7 // mix serial and parallel paths
			ForEach(n, workers, func(i int) {
				cur := atomic.AddInt64(&inFlight, 1)
				for {
					p := atomic.LoadInt64(&peak)
					if cur <= p || atomic.CompareAndSwapInt64(&peak, p, cur) {
						break
					}
				}
				if i%97 == 0 { // uneven task sizes
					runtime.Gosched()
				}
				atomic.AddInt32(&hits[i], 1)
				atomic.AddInt64(&inFlight, -1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Errorf("caller %d: index %d hit %d times", c, i, h)
					return
				}
			}
		}()
	}
	wg.Wait()
	if peak == 0 {
		t.Fatal("no task ever ran")
	}
}

// TestMapStressConcurrentCallers checks Map under concurrent use: results
// must stay ordered and complete even when many Maps share the scheduler.
func TestMapStressConcurrentCallers(t *testing.T) {
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := Map(513, 0, func(i int) int { return i * 3 })
			for i, v := range out {
				if v != i*3 {
					t.Errorf("Map[%d] = %d", i, v)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkForEachOverhead(b *testing.B) {
	for n := 0; n < b.N; n++ {
		ForEach(64, 8, func(i int) {})
	}
}
