package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Times
// are nanoseconds since the tracer started; parent 0 is the root.
type span struct {
	id, parent int32
	name       string
	start, end int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the timed runs call it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: now, end: -1})
	t.mu.Unlock()
	return id
}

// end closes the span begun with id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// spanStat is the per-name summary of a set of spans.
type spanStat struct {
	name    string
	count   int
	totalNS int64
	selfNS  int64
}

// summary returns, per span name, the count, total duration and self
// time: each span's duration minus the part of it that its children's
// intervals cover.
func (t *tracer) summary() []spanStat {
	kids := map[int32][][2]int64{}
	for _, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	by := map[string]*spanStat{}
	var order []string
	for _, s := range t.spans {
		st := by[s.name]
		if st == nil {
			st = &spanStat{name: s.name}
			by[s.name] = st
			order = append(order, s.name)
		}
		d := s.end - s.start
		st.count++
		st.totalNS += d
		st.selfNS += d - covered(s.start, s.end, kids[s.id])
	}
	out := make([]spanStat, len(order))
	for i, n := range order {
		out[i] = *by[n]
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// write stores the spans as CSV: id,parent,name,start_ns,end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// memDelta is the Go runtime's work between two MemStats readings.
type memDelta struct {
	gcCycles  uint32
	gcPauseMS float64
	allocMB   float64
}

// profiled runs f under a CPU profile and returns the profile bytes
// and the runtime counters f moved.
func profiled(f func()) ([]byte, memDelta, error) {
	var buf bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, memDelta{}, err
	}
	f()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	return buf.Bytes(), memDelta{
		gcCycles:  after.NumGC - before.NumGC,
		gcPauseMS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		allocMB:   float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
	}, nil
}

// printSpanSummary writes the span table as comment lines.
func printSpanSummary(w io.Writer, stats []spanStat) {
	fmt.Fprintf(w, "# %-28s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range stats {
		fmt.Fprintf(w, "# %-28s %9d %12.3f %12.3f\n", s.name, s.count,
			float64(s.totalNS)/1e6, float64(s.selfNS)/1e6)
	}
}
