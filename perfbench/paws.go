package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/paws"
	"cellfi/internal/pawsdb"
	"cellfi/internal/pawsload"
	"cellfi/internal/spectrum"
)

// The paws workloads: pawsAPs seeded access points poll an in-process
// paws.Server at pawsQPS on an open-loop schedule. The incumbent
// registry is one fixed metro (pawsload.BuildRegistry with
// pawsMetroSeed, the metro of BENCH_paws.json), so that the run's seed
// varies the APs, their order and the churn, not the cost of answers.
//
// pawsQPS is the highest rate, in steps of 10k qps, at which the load
// never queued behind itself on the tuning machine (two vCPUs): the
// largest start lateness of a traced paws-read pass stayed at one
// garbage-collector stall (8.0 ms at 20k, seeds 3, 5, 7), while at 30k
// it reached 15 and 21 ms on two of the three seeds, at 40k 28 ms (13 %
// of requests late), and at 50k, the floor BENCH_paws.json enforces,
// 41-55 ms (18-28 % late). Those figures are from a quiet moment of
// the host; README.md gives them with their caveats.
// 20k is 30 % of the capacity a burst of requests sent back to back on
// two load goroutines measured there (68k qps). Those rates were found
// with the open loop on two load goroutines; it runs on one (see
// pawsWorkers), which 20k keeps about 40 % busy. Above it, gen.*
// would measure the generator's backlog rather than the program's
// stalls; the servers' own polling interval (MaxPollingSecs 3600,
// about 28 qps for 100k APs) would leave the database idle.
const (
	pawsAPs        = 100_000
	pawsIncumbents = 160
	pawsRegionM    = 30_000
	pawsMetroSeed  = 1
	pawsQPS        = 20_000
	pawsPasses     = 2
	// pawsTailTop caps the paws tail at p95 of the open loop's service
	// times. On the tuning machine a loop of pure arithmetic timed in
	// slices of about 22 µs, like a request, had p50 22-23 µs and p99
	// 45-46 µs, and 1 % of its slices took over twice the median: at
	// p99 and above, a request of about 20 µs times the host's
	// interruptions, not the program. The paws tail at p99 spread
	// 30-36 % over ten runs of the same code, and at p99.9 more; p95
	// stays below them.
	pawsTailTop = 0.95
	// churnPeriod is the gap between scripted incumbent arrivals in
	// paws-churn.
	churnPeriod = 500 * time.Millisecond
	// sampleEvery picks the share of answers checked against
	// spectrum.Registry.AvailableAt.
	sampleEvery = 97
	rulesetID   = "ETSI-EN-301-598-2014"
	deviceClass = "FIXED"
)

// pawsWorkers is the number of load goroutines of the lease prefill:
// at most two, and no more than the processors the process may use.
// The open loop runs on one of them, which leaves the other processor
// to the garbage collector and the operating system: with a second
// load goroutine spinning between its due times, they took their time
// from requests in service, and the figures followed the host more
// than the program.
func pawsWorkers() int { return min(2, runtime.GOMAXPROCS(0)) }

// respSink is a reusable http.ResponseWriter that keeps the body.
type respSink struct {
	hdr    http.Header
	status int
	buf    []byte
}

func (s *respSink) Header() http.Header         { return s.hdr }
func (s *respSink) WriteHeader(code int)        { s.status = code }
func (s *respSink) Write(p []byte) (int, error) { s.buf = append(s.buf, p...); return len(p), nil }

// ok reports a successful JSON-RPC result: HTTP 200 and no "error"
// member (success envelopes omit it).
func (s *respSink) ok() bool {
	return s.status == http.StatusOK && !bytes.Contains(s.buf, []byte(`"error"`))
}

// conn is one load goroutine's reusable request and response.
type conn struct {
	rd  *bytes.Reader
	req *http.Request
	out *respSink
}

func newConn(target *url.URL) *conn {
	c := &conn{rd: bytes.NewReader(nil), out: &respSink{hdr: http.Header{}}}
	c.req = &http.Request{
		Method: http.MethodPost,
		URL:    target,
		Host:   target.Host,
		Header: http.Header{"Content-Type": {"application/json"}},
		Body:   io.NopCloser(c.rd),
	}
	return c
}

func (c *conn) serve(h http.Handler, body []byte) bool {
	c.rd.Reset(body)
	c.out.status = http.StatusOK
	c.out.buf = c.out.buf[:0]
	clear(c.out.hdr)
	h.ServeHTTP(c.out, c.req)
	return c.out.ok()
}

// pawsSample is one answer kept for checking, with the registry epoch
// seen before and after it was served.
type pawsSample struct {
	ap     int
	e0, e1 int64
	body   []byte
}

// pawsWorld is one set-up: registry, database, server, the APs'
// request bodies, and the scripted incumbent arrivals.
type pawsWorld struct {
	seed      int64
	reg       *spectrum.Registry
	db        *pawsdb.DB
	srv       *paws.Server
	pts       []geo.Point
	bodies    [][]byte
	order     []int32 // request k goes to AP order[k%len(order)]
	churn     []spectrum.Incumbent
	baseEpoch int64
	conns     []*conn
}

// setupPaws builds a pawsWorld and prefills every AP's lease with one
// request, so the timed phase exercises renewal.
func setupPaws(seed int64) (*pawsWorld, error) {
	target, err := url.Parse("http://pawsdb.bench/paws")
	if err != nil {
		return nil, err
	}
	w := &pawsWorld{seed: seed, reg: pawsload.BuildRegistry(pawsMetroSeed, pawsIncumbents, pawsRegionM)}
	w.db = pawsdb.New(w.reg, pawsdb.Options{})
	w.srv = paws.NewServerWith(w.db)
	w.baseEpoch = w.reg.Epoch()

	rng := rand.New(rand.NewSource(seed ^ 0x70a75))
	w.pts = make([]geo.Point, pawsAPs)
	w.bodies = make([][]byte, pawsAPs)
	for i := range w.pts {
		w.pts[i] = geo.Point{X: (rng.Float64()*2 - 1) * pawsRegionM, Y: (rng.Float64()*2 - 1) * pawsRegionM}
		params, err := json.Marshal(paws.AvailSpectrumReq{
			DeviceDesc: paws.DeviceDescriptor{
				SerialNumber:   fmt.Sprintf("AP-%06d", i),
				ManufacturerID: "cellfi",
				ModelID:        "ap-e40",
				DeviceType:     deviceClass,
				RulesetIDs:     []string{rulesetID},
			},
			Location:       paws.ToGeo(w.pts[i]),
			AntennaHeightM: 15,
		})
		if err != nil {
			return nil, err
		}
		if w.bodies[i], err = json.Marshal(paws.RPCRequest(paws.MethodGetSpectrum, params, int64(i+1))); err != nil {
			return nil, err
		}
	}
	w.order = make([]int32, pawsAPs)
	for i, ap := range rng.Perm(pawsAPs) {
		w.order[i] = int32(ap)
	}
	first, last := w.reg.Domain.ChannelRange()
	for i := 0; i < 64; i++ {
		w.churn = append(w.churn, spectrum.Incumbent{
			Kind:          spectrum.WirelessMic,
			Channel:       first + rng.Intn(last-first+1),
			Location:      geo.Point{X: (rng.Float64()*2 - 1) * pawsRegionM, Y: (rng.Float64()*2 - 1) * pawsRegionM},
			ProtectRadius: 100 + rng.Float64()*800,
		})
	}
	for i := 0; i < pawsWorkers(); i++ {
		w.conns = append(w.conns, newConn(target))
	}

	pre := openLoop(pawsAPs, 0, len(w.conns), func(c, k int) bool {
		return w.conns[c].serve(w.srv, w.bodies[k])
	})
	if pre.Failed > 0 {
		return nil, fmt.Errorf("lease prefill: %d of %d requests failed", pre.Failed, pawsAPs)
	}
	return w, nil
}

// addIncumbent lands scripted arrival i through the registry while the
// server is live (under the server's mutation lock).
func (w *pawsWorld) addIncumbent(i int) error {
	w.srv.Lock()
	defer w.srv.Unlock()
	return w.reg.AddIncumbent(w.churn[i%len(w.churn)])
}

// pawsPhase is one pass's open loop.
type pawsPhase struct {
	gen     genResult
	samples []pawsSample
	writes  int
	errs    []error
}

// writeEvery is the number of requests between scripted incumbent
// arrivals in paws-churn: one per churnPeriod at pawsQPS.
const writeEvery = int(pawsQPS * churnPeriod / time.Second)

// runPhase sends n requests on one load goroutine (see pawsWorkers),
// request k due k periods of pawsQPS after the start. With churn,
// request k first lands arrival k/writeEvery when it is the last of
// its block.
func (w *pawsWorld) runPhase(n int, churn bool, tr *tracer, parent int32) pawsPhase {
	perWorker := make([][]pawsSample, 1)
	perErr := make([][]error, 1)
	var ph pawsPhase
	runtime.GC() // start the phase without earlier garbage
	ph.gen = openLoop(n, time.Second/pawsQPS, 1, func(c, k int) bool {
		if churn && k%writeEvery == writeEvery-1 {
			sp := tr.begin("spectrum.Registry.AddIncumbent", parent)
			if err := w.addIncumbent(k / writeEvery); err != nil {
				perErr[c] = append(perErr[c], err)
			}
			tr.end(sp)
		}
		ap := int(w.order[k%len(w.order)])
		sample := k%sampleEvery == int(w.seed%sampleEvery)
		var e0 int64
		if sample {
			e0 = w.reg.Epoch()
		}
		sp := tr.begin("paws.Server.ServeHTTP", parent)
		ok := w.conns[c].serve(w.srv, w.bodies[ap])
		tr.end(sp)
		if sample {
			body := append([]byte(nil), w.conns[c].out.buf...)
			perWorker[c] = append(perWorker[c], pawsSample{ap: ap, e0: e0, e1: w.reg.Epoch(), body: body})
		}
		return ok
	})
	if churn {
		ph.writes = n / writeEvery
	}
	for c := range perWorker {
		ph.samples = append(ph.samples, perWorker[c]...)
		ph.errs = append(ph.errs, perErr[c]...)
	}
	return ph
}

// verify checks each sampled answer served at a stable registry epoch
// against spectrum.Registry.AvailableAt on an independently built
// registry holding the same incumbents. It returns how many answers it
// checked and the first mismatch.
func (w *pawsWorld) verify(samples []pawsSample) (checked int, bad string) {
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].e0 < samples[j].e0 })
	ref := pawsload.BuildRegistry(pawsMetroSeed, pawsIncumbents, pawsRegionM)
	added := int64(0)
	for _, s := range samples {
		if s.e0 != s.e1 {
			continue // a write landed while this answer was served
		}
		for ; added < s.e0-w.baseEpoch; added++ {
			if err := ref.AddIncumbent(w.churn[int(added)%len(w.churn)]); err != nil {
				return checked, err.Error()
			}
		}
		var env struct {
			Result paws.AvailSpectrumResp `json:"result"`
			Error  *paws.RPCError         `json:"error"`
		}
		if err := json.Unmarshal(s.body, &env); err != nil || env.Error != nil || len(env.Result.Schedules) != 1 {
			return checked, fmt.Sprintf("AP %d: undecodable answer %.120q", s.ap, s.body)
		}
		p := paws.FromGeo(paws.ToGeo(w.pts[s.ap]))
		want := ref.AvailableAt(p, env.Result.Timestamp)
		got := env.Result.Schedules[0].Spectra
		if len(got) != len(want) {
			return checked, fmt.Sprintf("AP %d: %d channels, registry says %d", s.ap, len(got), len(want))
		}
		for i := range got {
			if got[i].Channel != want[i].Channel || got[i].MaxEIRPdBm != want[i].MaxEIRPdBm {
				return checked, fmt.Sprintf("AP %d: channel %d/%g, registry says %d/%g", s.ap,
					got[i].Channel, got[i].MaxEIRPdBm, want[i].Channel, want[i].MaxEIRPdBm)
			}
		}
		checked++
	}
	return checked, ""
}

// busy is the time the server spent on the phase's requests, the sum
// of their service times: the open loop's own wall time is fixed by
// its schedule. On the tuning machine it spread half as much between
// runs as the wall time of the same number of requests sent back to
// back, which followed the host's slow minutes.
func (ph pawsPhase) busy() time.Duration {
	var d time.Duration
	for _, v := range ph.gen.Svc {
		d += time.Duration(v)
	}
	return d
}

// record adds a pass: its busy time, and the service time of each
// request as its latency. Latency from the due time, which in a shared
// virtual machine follows the hypervisor's stalls as much as the
// program, is kept for the note and the traced run's gen.due_*
// metrics. A failed request misses any latency limit.
func (ph pawsPhase) record(o *outcome, pt part, pass int, verify func([]pawsSample) (int, string)) {
	ms := make([]float64, len(ph.gen.Svc))
	for i, v := range ph.gen.Svc {
		ms[i] = float64(v) / 1e6
		if ph.gen.Lat[i] == math.MaxInt64 {
			ms[i] = math.MaxFloat64
		}
	}
	o.addPass(pt, ph.busy(), ms)
	n := len(ph.gen.Lat)
	o.attempted += int64(n)
	o.failed += int64(ph.gen.Failed)
	checked, bad := verify(ph.samples)
	o.check(fmt.Sprintf("pass %d answers", pass), ph.gen.Failed == 0 && bad == "" && checked > 0 && len(ph.errs) == 0,
		"%d/%d ok, %d sampled answers equal Registry.AvailableAt %s %v", n-ph.gen.Failed, n, checked, bad, ph.errs)
}

// runPaws is the paws-read (static registry) or paws-churn (scripted
// incumbent arrivals) workload. Each of its pawsPasses passes sets up a
// fresh database and offers its share of three quarters of the run's
// seconds of open-loop load; an operation is a request.
func runPaws(cfg config, churn bool) (*outcome, error) {
	o := &outcome{calibrate: !cfg.traced, tailTop: pawsTailTop}
	name := "paws-read"
	if churn {
		name = "paws-churn"
	}
	n := int(cfg.seconds * 3 / (4 * pawsPasses) * pawsQPS) // the rest is set-up
	passes := pawsPasses
	if cfg.traced {
		passes = 2 // one untraced, one traced
	}
	var untracedBusy time.Duration
	var due []float64 // open-loop latency from due time, µs
	for i := 0; i < passes; i++ {
		var w *pawsWorld
		var err error
		o.addSetup(o.measure(func() { w, err = setupPaws(cfg.seed) }))
		if err != nil {
			return nil, err
		}
		traced := cfg.traced && i == passes-1

		var p pawsPhase
		var pt part
		before := w.db.Snapshot(time.Now())
		if !traced {
			pt = o.measure(func() { p = w.runPhase(n, churn, nil, 0) })
			untracedBusy = p.busy()
		} else {
			o.tr = newTracer()
			pt = o.measure(func() {
				o.profile, o.mem, err = profiled(func() {
					root := o.tr.begin(name, 0)
					p = w.runPhase(n, churn, o.tr, root)
					o.tr.end(root)
				})
			})
			if err != nil {
				return nil, err
			}
		}
		after := w.db.Snapshot(time.Now())
		p.record(o, pt, i, w.verify)
		due = append(due, nsToUS(p.gen.Lat)...)
		if churn {
			rebuilds := after.Rebuilds - 1 // the prefill built the first snapshot
			o.check(fmt.Sprintf("pass %d churn", i), rebuilds >= int64(p.writes)/2 && p.writes > 0,
				"%d incumbent arrivals, %d rebuilds", p.writes, rebuilds)
		}
		if traced {
			o.layers = pawsLayers(w, p, before, after)
			o.layers["trace.overhead_share"] = p.busy().Seconds()/untracedBusy.Seconds() - 1
		}
	}
	o.note("%s: open loop at %d qps on 1 load goroutine, %d requests a pass: %s; latency from due p50 %.4f ms, p99 %.4f ms",
		name, pawsQPS, n, o.summary(), quantile(due, 0.5)/1e3, quantile(due, 0.99)/1e3)
	return o, nil
}

// pawsLayers derives the database and service metrics of the traced
// phase, then times DB.Query directly, and the registry write and the
// first query after it (the snapshot rebuild).
func pawsLayers(w *pawsWorld, ph pawsPhase, before, after pawsdb.MetricsSnapshot) map[string]float64 {
	l := map[string]float64{}
	hits := after.CacheHits - before.CacheHits
	lookups := hits + (after.CacheNegHits - before.CacheNegHits) + (after.CacheMisses - before.CacheMisses)
	if lookups > 0 {
		l["pawsdb.cache_hit_rate"] = float64(hits) / float64(lookups)
	}
	l["pawsdb.rebuilds"] = float64(after.Rebuilds - before.Rebuilds)
	svc := nsToUS(ph.gen.Svc)
	l["paws.serve_p50_us"] = quantile(svc, 0.5)
	l["paws.serve_p99_us"] = quantile(svc, 0.99)
	due := nsToUS(ph.gen.Lat)
	l["gen.due_p50_us"] = quantile(due, 0.5)
	l["gen.due_p99_us"] = quantile(due, 0.99)
	l["gen.late_share"] = float64(ph.gen.Late) / float64(len(ph.gen.Lat))
	l["gen.max_late_ms"] = float64(ph.gen.MaxLate) / 1e6

	var q []float64
	for k := 0; k < 20_000; k++ {
		p := w.pts[w.order[k*7%len(w.order)]]
		t := time.Now()
		w.db.Query(p, deviceClass, rulesetID, t)
		q = append(q, float64(time.Since(t))/1e3)
	}
	l["pawsdb.query_p50_us"] = quantile(q, 0.5)
	l["pawsdb.query_p99_us"] = quantile(q, 0.99)
	if s := l["paws.serve_p50_us"]; s > 0 {
		l["paws.rpc_share"] = (s - l["pawsdb.query_p50_us"]) / s
	}

	var add, rebuild []float64
	for i := 0; i < 8; i++ {
		t := time.Now()
		if err := w.addIncumbent(len(w.churn) - 1 - i); err != nil {
			continue
		}
		add = append(add, float64(time.Since(t))/1e3)
		t = time.Now()
		w.db.Query(w.pts[i], deviceClass, rulesetID, t)
		rebuild = append(rebuild, float64(time.Since(t))/1e6)
	}
	l["spectrum.add_incumbent_us"] = median(add)
	l["pawsdb.rebuild_ms"] = median(rebuild)
	return l
}
