package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"cellfi/internal/chaos"
	"cellfi/internal/invariant"
	"cellfi/internal/trace"
)

// chaosBlocks is how many 16-seed blocks one chaos-matrix pass runs;
// each block covers every crash×storm×failover×skew combination once.
const chaosBlocks = 3

// chaosBase is the world every matrix cell derives from.
var chaosBase = chaos.Config{APs: 6, Steps: 240, MaxSkew: 2 * time.Second}

// recorder keeps a chaos world's merged trace stream.
type recorder struct {
	mu   sync.Mutex
	recs []trace.Record
}

func (r *recorder) Record(rec trace.Record) {
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
}

// chaosPass is one run of the matrix.
type chaosPass struct {
	wall                                  time.Duration
	worldMS                               []float64
	failed                                int64
	combos                                map[[4]bool]int
	firstErr                              error
	contacts, failovers, vacates, records int64
	violations                            int
}

func axes(c chaos.Config) [4]bool {
	return [4]bool{c.Crashes, c.Storms, c.Failover, c.MaxSkew > 0}
}

// runChaosPass runs chaosBlocks×16 worlds, chaos.FromSeed(base+i),
// with base a multiple of 16 derived from the seed.
func runChaosPass(seed int64, tr *tracer, parent int32) chaosPass {
	p := chaosPass{combos: map[[4]bool]int{}}
	base := seed * 16 * chaosBlocks
	start := time.Now()
	for i := int64(0); i < 16*chaosBlocks; i++ {
		cfg := chaos.FromSeed(base+i, chaosBase)
		sp := tr.begin("chaos.Run", parent)
		t := time.Now()
		res, err := chaos.Run(cfg, nil)
		ms := float64(time.Since(t)) / 1e6
		tr.end(sp)
		if err == nil {
			err = res.Err()
		}
		if err != nil {
			p.worldMS = append(p.worldMS, math.MaxFloat64) // a failed world misses any latency limit
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("seed %d: %w", cfg.Seed, err)
			}
			continue
		}
		p.worldMS = append(p.worldMS, ms)
		p.combos[axes(cfg)]++
		p.contacts += res.Contacts
		p.failovers += int64(res.Failovers)
		p.vacates += int64(res.Vacates)
		p.records += int64(res.Records)
		p.violations += res.Violations
	}
	p.wall = time.Since(start)
	return p
}

// runChaos is the chaos-matrix workload: 6-AP worlds of 240 virtual
// seconds with the invariant watchdog on. The set-up is a calm world
// run to warm the process; an operation is a world.
func runChaos(cfg config) (*outcome, error) {
	o := &outcome{calibrate: !cfg.traced}
	for i := 0; i < 3; i++ {
		calm := chaosBase
		calm.Seed, calm.MaxSkew = -1-cfg.seed, 0
		var res chaos.Result
		var err error
		o.addSetup(o.measure(func() { res, err = chaos.Run(calm, nil) }))
		if err == nil {
			err = res.Err()
		}
		o.check("calm warm-up world", err == nil, "%v", err)
	}

	record := func(p chaosPass, pt part) {
		o.attempted += int64(len(p.worldMS))
		o.failed += p.failed
		o.addPass(pt, p.wall, p.worldMS)
		o.check("matrix pass", p.failed == 0 && p.violations == 0 && len(p.combos) == 16,
			"%d worlds, %d failed, %d violations, %d of 16 axis combinations %v",
			len(p.worldMS), p.failed, p.violations, len(p.combos), p.firstErr)
	}

	pass := func() chaosPass {
		var p chaosPass
		pt := o.measure(func() { p = runChaosPass(cfg.seed, nil, 0) })
		record(p, pt)
		return p
	}
	first := pass()
	if !cfg.traced {
		for i := 1; i < passCount(cfg.seconds, 9500*time.Millisecond, 1); i++ {
			pass()
		}
		o.note("chaos-matrix of %d worlds: %s", 16*chaosBlocks, o.summary())
		return o, nil
	}

	var traced chaosPass
	var err error
	o.tr = newTracer()
	tp := o.measure(func() {
		o.profile, o.mem, err = profiled(func() {
			root := o.tr.begin("chaos-matrix", 0)
			traced = runChaosPass(cfg.seed, o.tr, root)
			o.tr.end(root)
		})
	})
	if err != nil {
		return nil, err
	}
	record(traced, tp)
	o.check("counts repeat across passes", traced.contacts == first.contacts && traced.records == first.records &&
		traced.vacates == first.vacates && traced.failovers == first.failovers,
		"contacts %d/%d records %d/%d", traced.contacts, first.contacts, traced.records, first.records)

	nsPerRec, err := invariantReplayNS(cfg.seed)
	if err != nil {
		return nil, err
	}
	o.layers = map[string]float64{
		"chaos.world_ms":          median(traced.worldMS),
		"chaos.contacts":          float64(traced.contacts),
		"chaos.failovers":         float64(traced.failovers),
		"chaos.vacates":           float64(traced.vacates),
		"chaos.records":           float64(traced.records),
		"invariant.ns_per_record": nsPerRec,
		"trace.overhead_share":    traced.wall.Seconds()/first.wall.Seconds() - 1,
	}
	o.note("untraced matrix %.3f s, traced %.3f s", first.wall.Seconds(), traced.wall.Seconds())
	return o, nil
}

// invariantReplayNS captures the trace stream of the matrix's busiest
// cell (every axis on) and replays it through a fresh invariant.Checker,
// returning the median of five replays in nanoseconds per record.
func invariantReplayNS(seed int64) (float64, error) {
	cfg := chaos.FromSeed(seed*16*chaosBlocks+15, chaosBase)
	rec := &recorder{}
	if _, err := chaos.Run(cfg, rec); err != nil {
		return 0, err
	}
	if len(rec.recs) == 0 {
		return 0, fmt.Errorf("chaos world %d recorded no trace", cfg.Seed)
	}
	var reps []float64
	for i := 0; i < 5; i++ {
		c := &invariant.Checker{Slack: cfg.MaxSkew}
		t := time.Now()
		c.Feed(rec.recs)
		reps = append(reps, float64(time.Since(t))/float64(len(rec.recs)))
		if err := c.Err(); err != nil {
			return 0, fmt.Errorf("replay of chaos world %d: %w", cfg.Seed, err)
		}
	}
	return median(reps), nil
}
