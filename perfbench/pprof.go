package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuTime is a CPU profile summed by package, two ways.
type cpuTime struct {
	// self charges each sample to the package of its innermost frame.
	self map[string]int64
	// owned charges each sample to the innermost frame that belongs to
	// the program or the benchmark, so standard-library and runtime
	// work lands on the package that called it; samples without such a
	// frame (garbage-collector workers, the scheduler) stay "runtime".
	owned map[string]int64
	total int64
}

// profileByPackage sums each sample of the runtime/pprof CPU profile
// at path by package (see bucketOf). It reads the profile through the
// Go toolchain's `go tool pprof -raw`, whose text lists
//
//	Samples:                      count  cpu-ns: location ids, leaf first
//	Locations                     id: addr M=n func file:line:col s=n
//	                                       (inlined callers follow on
//	                                       their own, indented lines)
func profileByPackage(path string) (cpuTime, error) {
	cmd := exec.Command("go", "tool", "pprof", "-raw", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return cpuTime{}, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	type sample struct {
		locs  []string
		value int64
	}
	var (
		samples []sample
		locFns  = map[string][]string{} // location id → buckets, innermost frame first
		section string
		loc     string
	)
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch line {
		case "Samples:", "Locations", "Mappings":
			section = line
			continue
		}
		f := strings.Fields(line)
		switch {
		case section == "Samples:":
			vals, ids, ok := strings.Cut(line, ":")
			v := strings.Fields(vals)
			if !ok || len(v) == 0 {
				continue // the header naming the sample types
			}
			ns, err := strconv.ParseInt(v[len(v)-1], 10, 64) // values are [samples, cpu ns]
			if err != nil {
				return cpuTime{}, fmt.Errorf("go tool pprof: sample line %q", line)
			}
			samples = append(samples, sample{locs: strings.Fields(ids), value: ns})
		case section == "Locations" && len(f) >= 2 && strings.HasSuffix(f[0], ":"):
			// A new location: id, address, then optional mapping and
			// folding marks before its innermost function.
			loc = strings.TrimSuffix(f[0], ":")
			f = f[2:]
			for len(f) > 0 && (strings.HasPrefix(f[0], "M=") || f[0] == "[F]") {
				f = f[1:]
			}
			if len(f) > 0 {
				locFns[loc] = append(locFns[loc], bucketOf(f[0]))
			}
		case section == "Locations" && len(f) > 0:
			locFns[loc] = append(locFns[loc], bucketOf(f[0])) // an inlined caller
		}
	}
	if err := sc.Err(); err != nil {
		return cpuTime{}, err
	}

	ct := cpuTime{self: map[string]int64{}, owned: map[string]int64{}}
	for _, s := range samples {
		ct.total += s.value
		leaf, owner := "runtime", ""
		for i, loc := range s.locs {
			for j, b := range locFns[loc] {
				if i == 0 && j == 0 {
					leaf = b
				}
				if b != "runtime" && b != "stdlib" {
					owner = b
					break
				}
			}
			if owner != "" {
				break
			}
		}
		if owner == "" {
			owner = "runtime"
		}
		ct.self[leaf] += s.value
		ct.owned[owner] += s.value
	}
	return ct, nil
}

// bucketOf maps a function name to the layer its self time is charged
// to: the package name for cellfi/internal/<pkg>, "bench" for this
// benchmark's own code, "runtime" for the Go runtime and for frames
// pprof could not name ("??"), and "stdlib" for the rest of the
// standard library.
func bucketOf(fn string) string {
	path := fn
	if i := strings.IndexAny(path, "[("); i >= 0 {
		path = path[:i]
	}
	slash := strings.LastIndex(path, "/")
	if dot := strings.Index(path[slash+1:], "."); dot >= 0 {
		path = path[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(path, "cellfi/internal/"):
		rest := strings.TrimPrefix(path, "cellfi/internal/")
		if i := strings.Index(rest, "/"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case path == "main" || path == "cellfi/perfbench": // built as a command or a test
		return "bench"
	case path == "runtime" || strings.HasPrefix(path, "runtime/") ||
		strings.HasPrefix(path, "internal/runtime/") || path == "" || path == "??":
		return "runtime"
	default:
		return "stdlib"
	}
}
