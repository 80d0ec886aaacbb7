package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

func TestSpanSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{id: 1, name: "phase", start: 0, end: 100},
		{id: 2, parent: 1, name: "call", start: 10, end: 30},
		{id: 3, parent: 1, name: "call", start: 20, end: 50}, // overlaps the first
		{id: 4, parent: 1, name: "call", start: 60, end: 70},
		{id: 5, parent: 4, name: "inner", start: 62, end: 64},
	}}
	got := map[string]spanStat{}
	for _, s := range tr.summary() {
		got[s.name] = s
	}
	want := map[string]spanStat{
		"phase": {name: "phase", count: 1, totalNS: 100, selfNS: 50},
		"call":  {name: "call", count: 3, totalNS: 60, selfNS: 58},
		"inner": {name: "inner", count: 1, totalNS: 2, selfNS: 2},
	}
	for n, w := range want {
		if got[n] != w {
			t.Errorf("%s: got %+v, want %+v", n, got[n], w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("x", 0)) // must not panic
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"cellfi/internal/netsim.(*Sim).sinrParts":                       "netsim",
		"cellfi/internal/experiments.fleet[go.shape.struct { a/b.c }]":  "experiments",
		"cellfi/internal/propagation.(*Fading).AppendGainsLinear.func1": "propagation",
		"main.waitUntil":                      "bench",
		"runtime.mallocgc":                    "runtime",
		"internal/runtime/maps.(*Map).Get":    "runtime",
		"encoding/json.(*decodeState).object": "stdlib",
		"time.Now":                            "stdlib",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (n int) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

// A real CPU profile of a busy loop in this package reads through
// `go tool pprof`, and the loop's samples (including the time.Now it calls) land on "bench".
func TestProfileByPackageDecodesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	ct, err := profileByPackage(path)
	if err != nil {
		t.Fatal(err)
	}
	if ct.total == 0 {
		t.Skip("no CPU samples were taken")
	}
	if share := float64(ct.owned["bench"]) / float64(ct.total); share < 0.5 {
		t.Errorf("bench owns %.2f of the samples, want most: %v", share, ct.owned)
	}
	var self int64
	for _, ns := range ct.self {
		self += ns
	}
	if self != ct.total {
		t.Errorf("self time sums to %d, total %d", self, ct.total)
	}
}

// BENCHMARK.json must declare exactly the metrics the command prints.
func TestBenchmarkJSONDeclaresPrintedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd(&outcome{})
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the command prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s [%s]: command prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if l := perLayer[i]; l.name != m.Name || l.unit != m.Unit || l.better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, command %+v", i, m, l)
		}
	}
}
