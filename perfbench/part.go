package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// part is one measured part of a run: a set-up or a pass.
type part struct {
	wall time.Duration
	// rssMB is the peak resident set size during the part.
	rssMB float64
}

// measure collects garbage, so the part does not pay for earlier
// garbage, then runs f and records its wall time and peak memory. In
// a timed run it also times the reference kernel before and after f
// (see hostRef), each time after a collection, so that no marking of
// the part's garbage competes with the reference. f must stop any
// goroutines it starts that still work after it returns.
func (o *outcome) measure(f func()) part {
	runtime.GC()
	if o.calibrate {
		o.refs = append(o.refs, hostRef())
	}
	resetPeakRSS()
	start := time.Now()
	f()
	p := part{wall: time.Since(start), rssMB: peakRSSMB()}
	if o.calibrate {
		runtime.GC()
		o.refs = append(o.refs, hostRef())
	}
	return p
}

// The benchmark runs on a shared virtual machine whose speed drifts by
// 10–50 % over minutes with its neighbours' load, on the same code. A
// timed run therefore times a reference kernel, which does not depend
// on the program, around every set-up and pass, and reports its times
// at the speed the reference had on the machine the benchmark was
// tuned on: time × refNominal ÷ (median reference time of the run). A
// slower moment slows the reference and the program alike; a slower
// program leaves the reference alone. The times as measured are
// printed too.

// refNominal is hostRef's time on the tuning machine (two vCPUs of an
// Intel Xeon, Go 1.24) at a quiet moment.
const refNominal = 3700 * time.Microsecond

// refTables are the kernel's successor tables, one per goroutine, built
// once: 4 MiB together, more than a core's L2 cache.
var refTables = sync.OnceValue(func() [2][]uint32 {
	var t [2][]uint32
	for g := range t {
		t[g] = make([]uint32, 1<<19)
		x := uint64(g + 1)
		for i := range t[g] {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			t[g][i] = uint32(x) & (1<<19 - 1)
		}
	}
	return t
})

// refSink keeps the kernel's results alive.
var refSink [2]float64

// refKernel does dependent loads through table and floating-point
// arithmetic on what it loads; it allocates nothing.
func refKernel(table []uint32) float64 {
	var f float64
	j := uint32(0)
	for i := 0; i < 300_000; i++ {
		j = table[j]
		f += math.Sqrt(float64(j) + f*1e-9)
	}
	return f
}

// hostRef is the median, over nine repetitions, of the wall time two
// goroutines take to run the kernel side by side.
func hostRef() time.Duration {
	tables := refTables()
	reps := make([]float64, 9)
	for r := range reps {
		var wg sync.WaitGroup
		start := time.Now()
		for g := range tables {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				refSink[g] = refKernel(tables[g])
			}(g)
		}
		wg.Wait()
		reps[r] = float64(time.Since(start))
	}
	return time.Duration(median(reps))
}

// speedScale converts the run's measured times to the tuning machine's
// speed; 1 when the run timed no reference.
func (o *outcome) speedScale() float64 {
	if len(o.refs) == 0 {
		return 1
	}
	refs := make([]float64, len(o.refs))
	for i, r := range o.refs {
		refs[i] = float64(r)
	}
	return float64(refNominal) / median(refs)
}
