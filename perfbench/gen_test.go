package main

import (
	"math"
	"testing"
	"time"
)

// A stall must count against every request scheduled while it lasts:
// with one worker, request 10 stalls 5 ms, so each request k due during
// the stall completes no earlier than the stall's end and its latency
// from due is at least 5 ms - (k-10) periods, although its own service
// time is short.
func TestOpenLoopCountsStallAgainstRequestsDueDuringIt(t *testing.T) {
	const (
		n      = 120
		period = 100 * time.Microsecond
		stall  = 5 * time.Millisecond
	)
	res := openLoop(n, period, 1, func(_, k int) bool {
		if k == 10 {
			time.Sleep(stall)
		}
		return true
	})
	if res.Failed != 0 {
		t.Fatalf("Failed = %d, want 0", res.Failed)
	}
	affected := 0
	for k := 11; k < n; k++ {
		floor := stall - time.Duration(k-10)*period
		if floor <= 0 {
			break
		}
		affected++
		if got := time.Duration(res.Lat[k]); got < floor {
			t.Errorf("request %d: latency from due %v, want >= %v", k, got, floor)
		}
		if svc := time.Duration(res.Svc[k]); svc >= floor {
			t.Errorf("request %d: service time %v includes the wait (floor %v)", k, svc, floor)
		}
	}
	if affected != 49 {
		t.Fatalf("%d requests due during the stall, want 49", affected)
	}
	// Requests due more than lateLimit before the stall ended started late.
	if wantLate := int((stall - lateLimit) / period); res.Late < wantLate-1 {
		t.Errorf("Late = %d, want at least %d", res.Late, wantLate-1)
	}
	if res.MaxLate < stall-2*period {
		t.Errorf("MaxLate = %v, want about %v", res.MaxLate, stall)
	}
	if want := time.Duration(n-1) * period; res.Wall < want {
		t.Errorf("Wall = %v, shorter than the schedule %v", res.Wall, want)
	}
}

func TestOpenLoopFailedRequestMissesAnyLimit(t *testing.T) {
	res := openLoop(20, 50*time.Microsecond, 2, func(_, k int) bool { return k != 3 })
	if res.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", res.Failed)
	}
	if res.Lat[3] != math.MaxInt64 {
		t.Errorf("failed request latency = %d, want MaxInt64", res.Lat[3])
	}
	for k, l := range res.Lat {
		if k != 3 && (l <= 0 || l == math.MaxInt64) {
			t.Errorf("request %d: latency %d", k, l)
		}
	}
}

func TestOpenLoopUsesOnlyItsWorkers(t *testing.T) {
	seen := make([]bool, 3)
	openLoop(200, 10*time.Microsecond, 2, func(w, _ int) bool {
		seen[w] = true // each worker writes only its own slot
		return true
	})
	if seen[2] {
		t.Error("a third worker ran")
	}
}
