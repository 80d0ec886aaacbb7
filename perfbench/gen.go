package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// lateLimit is how far past its due time a request may start before
// the generator counts it as late.
const lateLimit = time.Millisecond

// genResult is what one open-loop schedule measured. Latencies are
// indexed by request number.
type genResult struct {
	// Lat is completion minus due time: it includes the wait a stall
	// imposes on every request scheduled behind it.
	Lat []int64
	// Svc is completion minus start: service time without the wait.
	Svc []int64
	// Failed counts requests whose op reported failure.
	Failed int
	// Late counts requests that started more than lateLimit past due;
	// MaxLate is the largest start lateness.
	Late    int
	MaxLate time.Duration
	// Wall runs from the first due time to the last completion.
	Wall time.Duration
}

// openLoop issues n requests, request k due at start+k*period, on
// workers goroutines, independent of how fast earlier requests
// complete. op(w, k) runs request k on worker w and reports success.
// A worker that is free before a request's due time waits for it; a
// request due while every worker is busy starts late and its latency
// still counts from the due time.
func openLoop(n int, period time.Duration, workers int, op func(w, k int) bool) genResult {
	res := genResult{Lat: make([]int64, n), Svc: make([]int64, n)}
	var (
		ticket atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
	)
	start := time.Now().Add(time.Millisecond)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var failed, late int
			var maxLate time.Duration
			for {
				k := int(ticket.Add(1) - 1)
				if k >= n {
					break
				}
				due := start.Add(time.Duration(k) * period)
				waitUntil(due)
				t0 := time.Now()
				ok := op(w, k)
				t1 := time.Now()
				res.Lat[k] = int64(t1.Sub(due))
				res.Svc[k] = int64(t1.Sub(t0))
				if !ok {
					failed++
					res.Lat[k] = math.MaxInt64 // a failed request misses any latency limit
				}
				if l := t0.Sub(due); l > lateLimit {
					late++
					if l > maxLate {
						maxLate = l
					}
				}
			}
			mu.Lock()
			res.Failed += failed
			res.Late += late
			if maxLate > res.MaxLate {
				res.MaxLate = maxLate
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	return res
}

// waitUntil returns at t: it sleeps through long gaps and yields the
// processor through the last two milliseconds, since a timer sleep can
// overshoot by about that much.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 2*time.Millisecond {
			time.Sleep(d - 2*time.Millisecond)
		} else {
			runtime.Gosched()
		}
	}
}
