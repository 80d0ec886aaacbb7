package main

import (
	"encoding/json"
	"math"
	"slices"
	"testing"
	"time"
)

// The tail of each workload is the highest percentile with at least
// ten of the run's operations beyond it, for the operation count of a
// run at --seconds 20; paws caps it at pawsTailTop.
func TestTailQuantileForStatedSampleCounts(t *testing.T) {
	cases := []struct {
		what string
		n    int
		top  float64
		want float64
	}{
		{"metro-day: 3 days of 240 epochs", 3 * 240, 1, 0.95},
		{"paper-full: 4 suites of 421 fleet legs", 4 * 421, 1, 0.99},
		{"chaos-matrix: 2 passes of 48 worlds", 2 * 16 * chaosBlocks, 1, 0.75},
		{"paws: 2 open-loop phases of 7.5 s", 20 * pawsQPS * 3 / 4, pawsTailTop, 0.95},
		{"paws uncapped", 20 * pawsQPS * 3 / 4, 1, 0.99},
		{"too few samples for any tail", 16, 1, 0},
	}
	for _, c := range cases {
		got := tailQuantile(c.n, c.top)
		if got != c.want {
			t.Errorf("%s: tailQuantile(%d, %v) = %v, want %v", c.what, c.n, c.top, got, c.want)
		}
		if got > 0 && beyond(c.n, got) < 10 {
			t.Errorf("%s: only %d samples beyond p%v", c.what, beyond(c.n, got), got*100)
		}
	}
	// p95 of one day's 240 epochs leaves 12 beyond; p99 would leave 2.
	if b := beyond(240, 0.95); b != 12 {
		t.Errorf("beyond(240, 0.95) = %d, want 12", b)
	}
	if b := beyond(240, 0.99); b >= 10 {
		t.Errorf("beyond(240, 0.99) = %d, want < 10", b)
	}
	// An outcome without a cap leaves the percentile free.
	o := &outcome{opsMS: make([]float64, 4*421)}
	if q := o.tailQ(); q != 0.99 {
		t.Errorf("uncapped tailQ of 1,684 operations = %v, want 0.99", q)
	}
	o.tailTop = pawsTailTop
	if q := o.tailQ(); q != 0.95 {
		t.Errorf("tailQ capped at %v = %v, want 0.95", pawsTailTop, q)
	}
}

func TestQuantileIsNearestRankAndKeepsInput(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	orig := slices.Clone(s)
	for q, want := range map[float64]float64{0.5: 50, 0.95: 95, 0.99: 99, 1: 100, 0: 1} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if !slices.Equal(s, orig) {
		t.Error("quantile reordered its input")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
}

// A run that saw the reference kernel take twice its nominal time ran
// on a host at half speed: its times are halved, its memory is not.
func TestEndToEndScalesTimesToTheTuningMachine(t *testing.T) {
	o := &outcome{refs: []time.Duration{2 * refNominal, 2 * refNominal, 3 * refNominal}}
	o.addSetup(part{wall: 2 * time.Second})
	o.addPass(part{rssMB: 100}, 4*time.Second, []float64{10, 20, 30})
	m := endToEnd(o)
	for name, want := range map[string]float64{"setup_s": 1, "wall_s": 2, "p50_ms": 10, "peak_rss_mb": 100} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if k := (&outcome{}).speedScale(); k != 1 {
		t.Errorf("speedScale without references = %v, want 1", k)
	}

	// On a host faster than the tuning machine a failed operation's
	// latency stays finite, so the result line still marshals.
	fast := &outcome{refs: []time.Duration{refNominal / 2}}
	fast.addPass(part{}, time.Second, []float64{1, math.MaxFloat64, math.MaxFloat64})
	m = endToEnd(fast)
	if got := m["p50_ms"].Value; got != math.MaxFloat64 {
		t.Errorf("p50_ms of a run with most operations failed = %v, want math.MaxFloat64", got)
	}
	if _, err := json.Marshal(m); err != nil {
		t.Errorf("end-to-end metrics with a failed operation do not marshal: %v", err)
	}
}
