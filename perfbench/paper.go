package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"cellfi/internal/experiments"
	"cellfi/internal/runner"
)

// paperWorkers is the fleet worker count of the paper-full workload.
const paperWorkers = 2

// paperPass is one run of every experiment of the suite.
type paperPass struct {
	wall    time.Duration
	perExp  map[string]float64 // experiment ID → host seconds
	legMS   []float64          // wall time of every fleet leg
	legs    int64
	failed  int64 // failed or canceled legs, plus experiments that panicked outside a leg
	events  int64 // sim events over all legs
	legSum  float64
	campMS  float64 // summed campaign wall time
	digest  string
	panics  []string
	workers int
}

// runPaperPass runs the whole suite once at the given fleet worker
// count. A panicking experiment is recovered and counted as failed.
func runPaperPass(seed int64, quick bool, workers int, tr *tracer, parent int32) paperPass {
	experiments.SetWorkers(workers)
	experiments.DrainReports()
	p := paperPass{perExp: map[string]float64{}, workers: workers}
	d := newDigest()
	start := time.Now()
	for _, id := range experiments.IDs() {
		run, _ := experiments.Get(id)
		sp := tr.begin("experiments."+id, parent)
		t0 := time.Now()
		res, err := runRecovered(run, seed, quick)
		p.perExp[id] = time.Since(t0).Seconds()
		tr.end(sp)
		d.str(id)
		if err != nil {
			p.panics = append(p.panics, fmt.Sprintf("%s: %v", id, err))
			d.str("panic")
		} else {
			digestResult(d, res)
		}
		expFailed := int64(0)
		for _, rep := range experiments.DrainReports() {
			p.campMS += rep.WallMS * float64(rep.Workers)
			p.events += rep.TotalSimEvents
			for i := range rep.Runs {
				r := &rep.Runs[i]
				p.legs++
				p.legSum += r.WallMS
				ms := r.WallMS
				if r.Status != runner.StatusOK {
					expFailed++
					ms = math.MaxFloat64 // a failed leg misses any latency limit
				}
				p.legMS = append(p.legMS, ms)
			}
		}
		if err != nil && expFailed == 0 {
			expFailed = 1 // the experiment failed outside any leg
		}
		p.failed += expFailed
	}
	p.wall = time.Since(start)
	p.digest = d.sum()
	return p
}

func runRecovered(run experiments.Runner, seed int64, quick bool) (res experiments.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return run(seed, quick), nil
}

// hostTimed marks the table and note of an experiment that report
// measured host time (the PRACH detectors' speed against line rate),
// which differ from run to run by nature.
var hostTimed = map[string]struct{ table, note int }{"prach": {table: 1, note: 2}}

// digestResult folds every table, note and series of a result into d.
// Of a host-timed table it keeps the title, headers and row labels,
// and of a host-timed note only its presence.
func digestResult(d *digest, r experiments.Result) {
	d.str(r.ID)
	d.str(r.Title)
	timed, hasTimed := hostTimed[r.ID]
	d.int(int64(len(r.Tables)))
	for i, t := range r.Tables {
		if !hasTimed || i != timed.table {
			d.str(t.String())
			continue
		}
		d.str(t.Title)
		for _, h := range t.Headers {
			d.str(h)
		}
		for _, row := range t.Rows {
			if len(row) > 0 {
				d.str(row[0])
			}
		}
	}
	d.int(int64(len(r.Notes)))
	for i, n := range r.Notes {
		if !hasTimed || i != timed.note {
			d.str(n)
		}
	}
	d.int(int64(len(r.Series)))
	for _, s := range r.Series {
		d.str(s.Name)
		d.int(int64(len(s.Points)))
		for _, pt := range s.Points {
			d.float(pt[0])
			d.float(pt[1])
		}
	}
}

// runPaper is the paper-full workload: every experiment in full mode at
// two fleet workers, after a quick-mode pass of the suite that warms
// the process (its time is the set-up). An operation is a fleet leg:
// attempts and failures count legs, and operation latency is the wall
// time of each leg, as the fleet's reports give it.
func runPaper(cfg config) (*outcome, error) {
	o := &outcome{calibrate: !cfg.traced}
	if got := experiments.IDs(); !slices.Equal(got, paperIDs) {
		return nil, fmt.Errorf("experiment IDs changed: %v", got)
	}
	setups := 3
	if cfg.traced {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		var q paperPass
		o.addSetup(o.measure(func() { q = runPaperPass(cfg.seed, true, paperWorkers, nil, 0) }))
		o.check("quick suite", q.failed == 0 && len(q.panics) == 0, "%d legs, %d failed %v", q.legs, q.failed, q.panics)
	}

	record := func(p paperPass, pt part) {
		o.attempted += p.legs
		o.failed += p.failed
		o.addPass(pt, p.wall, p.legMS)
		o.check(fmt.Sprintf("suite pass (workers=%d)", p.workers), p.failed == 0 && len(p.panics) == 0,
			"%d/%d legs ok, digest %s %v", p.legs-p.failed, p.legs, p.digest, p.panics)
	}

	pass := func(workers int) paperPass {
		var p paperPass
		pt := o.measure(func() { p = runPaperPass(cfg.seed, false, workers, nil, 0) })
		record(p, pt)
		return p
	}
	first := pass(paperWorkers)
	if !cfg.traced {
		for i := 1; i < passCount(cfg.seconds, 5*time.Second, 1); i++ {
			p := pass(paperWorkers)
			o.check("digest stable across passes", p.digest == first.digest, "%s vs %s", p.digest, first.digest)
		}
		o.note("paper-full: %s", o.summary())
		return o, nil
	}

	// Traced: the same pass under spans and a CPU profile, then the
	// suite at one worker, whose digest must match.
	var traced paperPass
	var err error
	o.tr = newTracer()
	tp := o.measure(func() {
		o.profile, o.mem, err = profiled(func() {
			root := o.tr.begin("paper-full", 0)
			traced = runPaperPass(cfg.seed, false, paperWorkers, o.tr, root)
			o.tr.end(root)
		})
	})
	if err != nil {
		return nil, err
	}
	record(traced, tp)
	one := pass(1)
	o.check("digest workers=1 == workers=2", one.digest == first.digest && traced.digest == first.digest,
		"%s / %s / %s", one.digest, first.digest, traced.digest)

	o.layers = map[string]float64{
		"runner.busy_share":    traced.legSum / max(traced.campMS, 1e-9),
		"sim.events":           float64(traced.events),
		"sim.events_per_s":     float64(traced.events) / traced.wall.Seconds(),
		"trace.overhead_share": traced.wall.Seconds()/first.wall.Seconds() - 1,
	}
	for id, s := range traced.perExp {
		o.layers["experiments."+id+"_s"] = s
	}
	o.note("untraced suite %.3f s, traced %.3f s, workers=1 %.3f s, GOMAXPROCS %d",
		first.wall.Seconds(), traced.wall.Seconds(), one.wall.Seconds(), runtime.GOMAXPROCS(0))
	return o, nil
}

// passCount is how many passes of nominal duration fit in seconds, and
// at least min. Nominal durations were measured on the machine the
// benchmark was tuned on (two vCPUs of an Intel Xeon); the count
// depends on the arguments only, so every run of a workload measures
// the same number of passes and operations.
func passCount(seconds float64, nominal time.Duration, min int) int {
	return max(int(seconds/nominal.Seconds()), min)
}
