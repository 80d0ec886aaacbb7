package main

import (
	"fmt"
	"math/rand"
	"time"

	"cellfi/internal/metro"
	"cellfi/internal/phy"
	"cellfi/internal/propagation"
	"cellfi/internal/shard"
)

// metroShards is the shard count of the metro-day workload.
const metroShards = 2

// metroPass is one diurnal cycle of a freshly built city.
type metroPass struct {
	build   part
	day     part
	dayWall time.Duration // the 240 steps alone
	epochMS []float64
	digest  string
	epochs  int64 // World.Epoch after the day
	shard   shard.Stats
}

// runMetroPass builds metro.DefaultCity at the given shard count and
// steps it through one day, one World.Step per epoch; build and day
// are measured parts. The day part ends by closing the world, so its
// shard workers are gone before the reference kernel runs after it;
// between parts they wait on channels and use no processor.
func runMetroPass(o *outcome, seed int64, shards int, tr *tracer, parent int32) metroPass {
	mc := metro.DefaultCity(seed)
	mc.Shards = shards
	var p metroPass
	var w *metro.World
	p.build = o.measure(func() {
		sp := tr.begin("metro.New", parent)
		w = metro.New(mc)
		tr.end(sp)
	})

	p.epochMS = make([]float64, 0, mc.DayEpochs)
	p.day = o.measure(func() {
		day := tr.begin("metro.day", parent)
		start := time.Now()
		for e := 0; e < mc.DayEpochs; e++ {
			sp := tr.begin("metro.World.Step", day)
			t := time.Now()
			w.Step()
			p.epochMS = append(p.epochMS, float64(time.Since(t))/1e6)
			tr.end(sp)
		}
		p.dayWall = time.Since(start)
		tr.end(day)
		p.epochs = w.Epoch()
		p.shard, _ = w.ShardStats() // zero Stats on the unsharded path
		p.digest = metroDigest(w)
		w.Close()
	})
	return p
}

// metroDigest covers the outputs that must not depend on the shard
// count: attached UEs, delivered bits and throughput quantiles.
func metroDigest(w *metro.World) string {
	d := newDigest()
	d.int(w.Epoch())
	d.int(int64(w.AttachedCount()))
	d.int(w.DeliveredBits())
	d.int(w.ThroughputQ.Count())
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		d.float(w.ThroughputQ.Quantile(q))
	}
	return d.sum()
}

// runMetro is the metro-day workload: one 240-epoch diurnal cycle of
// the 2,000-AP / 100k-UE default city at two shards per pass. Building
// the world is the set-up; an operation is an epoch.
func runMetro(cfg config) (*outcome, error) {
	o := &outcome{calibrate: !cfg.traced}
	record := func(p metroPass, shards int) {
		o.attempted += int64(len(p.epochMS))
		o.addSetup(p.build)
		o.addPass(p.day, p.dayWall, p.epochMS)
		ok := len(p.epochMS) == 240 && p.epochs == 240
		if !ok {
			o.failed++
		}
		o.check(fmt.Sprintf("day (shards=%d)", shards), ok, "%d epochs, digest %s", len(p.epochMS), p.digest)
	}

	first := runMetroPass(o, cfg.seed, metroShards, nil, 0)
	record(first, metroShards)
	if !cfg.traced {
		for i := 1; i < passCount(cfg.seconds, 5500*time.Millisecond, 2); i++ {
			p := runMetroPass(o, cfg.seed, metroShards, nil, 0)
			record(p, metroShards)
			o.check("digest stable across passes", p.digest == first.digest, "%s vs %s", p.digest, first.digest)
		}
		o.note("metro-day: realtime %.2fx as measured; %s", 240/median(o.wallS), o.summary())
		return o, nil
	}

	var traced metroPass
	o.tr = newTracer()
	prof, mem, err := profiled(func() {
		root := o.tr.begin("metro-day", 0)
		traced = runMetroPass(o, cfg.seed, metroShards, o.tr, root)
		o.tr.end(root)
	})
	if err != nil {
		return nil, err
	}
	o.profile, o.mem = prof, mem
	record(traced, metroShards)
	one := runMetroPass(o, cfg.seed, 1, nil, 0)
	record(one, 1)
	o.check("digest shards=1 == shards=2", one.digest == first.digest && traced.digest == first.digest,
		"%s / %s / %s", one.digest, first.digest, traced.digest)

	st := traced.shard
	util := st.Utilization()
	o.layers = map[string]float64{
		"shard.barrier_stall_ms":  st.BarrierStallMS(),
		"shard.windows":           float64(st.Windows),
		"shard.msgs":              float64(st.Msgs),
		"kernel.fade_ns_per_link": fadeKernelNS(cfg.seed),
		"kernel.cqi_ns":           cqiKernelNS(cfg.seed),
		"trace.overhead_share":    traced.dayWall.Seconds()/first.dayWall.Seconds() - 1,
	}
	for i, u := range util {
		o.layers[fmt.Sprintf("shard.utilization.%d", i)] = u
	}
	o.note("untraced day %.3f s, traced %.3f s, shards=1 %.3f s", first.dayWall.Seconds(),
		traced.dayWall.Seconds(), one.dayWall.Seconds())
	return o, nil
}

// fadeKernelNS times propagation.Fading.AppendGainsLinear on rows
// shaped like the metro sweep's (32 AP→UE links per UE) and returns
// the median over five repetitions of nanoseconds per link.
func fadeKernelNS(seed int64) float64 {
	const rows, perRow, naps = 4096, 32, 2000
	rng := rand.New(rand.NewSource(seed))
	links := make([]uint64, rows*perRow)
	for u := 0; u < rows; u++ {
		for j := 0; j < perRow; j++ {
			links[u*perRow+j] = propagation.LinkID(rng.Intn(naps), naps+u)
		}
	}
	f := propagation.NewFading(seed)
	gains := make([]float64, 0, perRow)
	var reps []float64
	var sink float64
	for r := 0; r < 5; r++ {
		t := time.Now()
		for u := 0; u < rows; u++ {
			gains = f.AppendGainsLinear(gains[:0], links[u*perRow:(u+1)*perRow], 0, int64(r)*1000)
			sink += gains[0]
		}
		reps = append(reps, float64(time.Since(t))/float64(len(links)))
	}
	kernelSink = sink
	return median(reps)
}

// cqiKernelNS times phy.LTECQIFromLinearSINR over seeded SINRs spanning
// the CQI table and returns the median of five repetitions in
// nanoseconds per call.
func cqiKernelNS(seed int64) float64 {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(seed))
	sig := make([]float64, n)
	den := make([]float64, n)
	for i := range sig {
		sig[i] = rng.ExpFloat64()
		den[i] = 0.01 + rng.Float64()*0.5
	}
	var reps []float64
	var sink int
	for r := 0; r < 5; r++ {
		t := time.Now()
		for i := range sig {
			sink += phy.LTECQIFromLinearSINR(sig[i], den[i])
		}
		reps = append(reps, float64(time.Since(t))/n)
	}
	kernelSink = float64(sink)
	return median(reps)
}

// kernelSink keeps the timed kernel calls from being optimised away.
var kernelSink float64
