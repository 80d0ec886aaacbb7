// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload against the public Go API of
// cellfi/internal/..., checks the program's outputs, and prints one
// JSON result as the last line of standard output:
//
//	perfbench -workload metro-day -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1
// it holds the per-layer metrics of a traced run, which also writes its
// spans and CPU profile under outDir. README.md describes the workloads,
// the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
}

// outDir holds the spans and CPU profile of traced runs, relative to
// the repository root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// check is one verified property of the program's outputs.
type check struct {
	name   string
	ok     bool
	detail string
}

// outcome is what a workload reports back.
type outcome struct {
	attempted, failed int64
	checks            []check
	notes             []string

	// Timed figures: the time of each set-up, the wall time and peak
	// memory of each pass, and the latency of every operation of every
	// pass.
	setupS []float64
	wallS  []float64
	rssMB  []float64
	opsMS  []float64
	// tailTop caps the tail percentile (see tailQ); 0 leaves it free.
	tailTop float64
	// calibrate is set in timed runs, which time the reference kernel
	// around every part into refs (see measure).
	calibrate bool
	refs      []time.Duration

	// Traced runs only: the layer metrics the workload computed, the CPU
	// profile and runtime counters of the traced pass, and its spans.
	layers  map[string]float64
	profile []byte
	mem     memDelta
	tr      *tracer
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// addSetup records one set-up.
func (o *outcome) addSetup(s part) {
	o.setupS = append(o.setupS, s.wall.Seconds())
}

// addPass records one pass over the workload's fixed unit of work, run
// in part s: its wall time and the latency of each operation.
func (o *outcome) addPass(s part, wall time.Duration, opsMS []float64) {
	o.rssMB = append(o.rssMB, s.rssMB)
	o.wallS = append(o.wallS, wall.Seconds())
	o.opsMS = append(o.opsMS, opsMS...)
}

// tailQ is the run's tail percentile: the highest with ten of its
// operations beyond it, and no higher than tailTop when that is set.
// Pass counts depend on the arguments only, so it is the same for
// every run of a workload at a given --seconds.
func (o *outcome) tailQ() float64 {
	top := o.tailTop
	if top == 0 {
		top = 1
	}
	return tailQuantile(len(o.opsMS), top)
}

// summary renders the pass figures as measured, for a note.
func (o *outcome) summary() string {
	return fmt.Sprintf("as measured: set-up %.4f s, wall %.4f s, peak RSS %.1f MB (medians of %d passes); operation p50 %.4f ms, p%g %.4f ms over %d operations; host speed %.3f of the tuning machine's",
		median(o.setupS), median(o.wallS), median(o.rssMB), len(o.wallS), quantile(o.opsMS, 0.5), o.tailQ()*100,
		quantile(o.opsMS, o.tailQ()), len(o.opsMS), o.speedScale())
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(cfg config) (*outcome, error){
	"paper-full":   runPaper,
	"metro-day":    runMetro,
	"paws-read":    func(cfg config) (*outcome, error) { return runPaws(cfg, false) },
	"paws-churn":   func(cfg config) (*outcome, error) { return runPaws(cfg, true) },
	"chaos-matrix": runChaos,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are made from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long the timed part of the run measures")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown instead of the timed run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.traced = trace == 1

	stamp := machineStamp(cfg)
	fmt.Fprintf(stdout, "# machine %s\n", mustJSON(stamp))
	o, err := drive(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}

	correct := o.failed == 0 && o.attempted > 0
	for _, c := range o.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
			correct = false
		}
		fmt.Fprintf(stdout, "# check %-28s %-4s %s\n", c.name, status, c.detail)
	}
	for _, n := range o.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}

	res := result{Correct: correct, Attempted: o.attempted, Failed: o.failed}
	if cfg.traced {
		m, err := layerMetrics(cfg, o, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
			return 1
		}
		res.Metrics = m
	} else {
		res.Metrics = endToEnd(o)
	}
	fmt.Fprintln(stdout, mustJSON(res))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// endToEnd renders the end-to-end metrics of a timed run: the median
// set-up time, the median wall time and peak memory of a pass, and
// operation latency percentiles over all passes, with times at the
// tuning machine's speed (see measure). Scaling leaves the latency of a
// failed operation (math.MaxFloat64) finite, so the result still
// prints.
func endToEnd(o *outcome) map[string]metric {
	k := o.speedScale()
	scaled := func(v float64) float64 { return min(v*k, math.MaxFloat64) }
	return map[string]metric{
		"setup_s":     {scaled(median(o.setupS)), "s"},
		"peak_rss_mb": {median(o.rssMB), "MB"},
		"wall_s":      {scaled(median(o.wallS)), "s"},
		"p50_ms":      {scaled(quantile(o.opsMS, 0.5)), "ms"},
		"tail_ms":     {scaled(quantile(o.opsMS, o.tailQ())), "ms"},
	}
}

// layerMetrics writes the spans and CPU profile of a traced run under
// outDir, renders every per-layer metric, adds the CPU-profile and
// runtime counters, and prints the package self-time table and span
// summary.
func layerMetrics(cfg config, o *outcome, stdout io.Writer) (map[string]metric, error) {
	vals := map[string]float64{}
	for k, v := range o.layers {
		vals[k] = v
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".cpu.pprof", o.profile, 0o644); err != nil {
		return nil, err
	}
	if err := o.tr.write(base + ".spans.csv"); err != nil {
		return nil, err
	}
	ct, err := profileByPackage(base + ".cpu.pprof")
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	share := func(ns int64) float64 { return float64(ns) / float64(max(ct.total, 1)) }
	var pkgs []string
	for p := range ct.self {
		pkgs = append(pkgs, p)
	}
	for p := range ct.owned {
		if _, dup := ct.self[p]; !dup {
			pkgs = append(pkgs, p)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return ct.owned[pkgs[i]] > ct.owned[pkgs[j]] })
	fmt.Fprintf(stdout, "# %-14s %10s %8s %10s %8s  (%.1f s of CPU samples)\n",
		"package", "owned_ms", "share", "self_ms", "share", float64(ct.total)/1e9)
	for _, p := range pkgs {
		vals["cpu."+p+"_share"] = share(ct.owned[p])
		fmt.Fprintf(stdout, "# %-14s %10.1f %8.4f %10.1f %8.4f\n", p,
			float64(ct.owned[p])/1e6, share(ct.owned[p]), float64(ct.self[p])/1e6, share(ct.self[p]))
	}
	vals["runtime.gc_cycles"] = float64(o.mem.gcCycles)
	vals["runtime.gc_pause_ms"] = o.mem.gcPauseMS
	vals["runtime.alloc_mb"] = o.mem.allocMB
	vals["trace.spans"] = float64(len(o.tr.spans))
	printSpanSummary(stdout, o.tr.summary())

	out := map[string]metric{}
	for _, l := range perLayer {
		out[l.name] = metric{vals[l.name], l.unit}
	}
	for k := range vals {
		if _, ok := out[k]; !ok && !strings.HasPrefix(k, "cpu.") {
			return nil, fmt.Errorf("per-layer metric %q is not in the declared list", k)
		}
	}
	return out, nil
}

// stamp identifies the machine and code a result came from.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"go_max_procs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Started    string  `json:"started"`
}

func machineStamp(cfg config) stamp {
	return stamp{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.traced,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit(),
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the commit the binary was built from, as the go command
// stamped it, with "+dirty" for uncommitted changes; "unknown" when
// the sources were not a git checkout.
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers reach here
	}
	return string(b)
}
