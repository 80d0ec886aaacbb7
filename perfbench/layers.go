package main

// layerMetric is one declared per-layer metric. BENCHMARK.json lists
// the same names, units and directions; a test keeps them in
// step.
type layerMetric struct {
	name, unit, better string
}

// paperIDs are the experiments of the paper suite, in presentation
// order (experiments.IDs()).
var paperIDs = []string{
	"table1", "fig1", "fig2", "fig6", "fig7", "fig8", "prach",
	"fig9a", "fig9b", "fig9c", "theorem1", "overhead",
	"reuse", "lambda", "sensing", "hopping", "hybrid", "sched", "uplink", "aggregation", "mobility",
}

// cpuBuckets are the layers whose share of the CPU samples a traced
// run reports, each sample charged to its innermost frame in the
// program or the benchmark (see profileByPackage).
var cpuBuckets = []string{
	"chaos", "core", "experiments", "faults", "geo", "invariant", "lte", "metro",
	"netgraph", "netsim", "oracle", "paws", "pawsdb", "phy", "propagation", "runner",
	"shard", "sim", "spectrum", "stats", "topo", "trace", "traffic", "wifi",
	"runtime", "bench",
}

// perLayer is every metric a traced run prints. A workload that does
// not reach a layer reports 0 for it.
var perLayer = func() []layerMetric {
	var out []layerMetric
	for _, id := range paperIDs {
		out = append(out, layerMetric{"experiments." + id + "_s", "s", "lower"})
	}
	out = append(out,
		layerMetric{"runner.busy_share", "share", "higher"},
		layerMetric{"sim.events", "count", "lower"},
		layerMetric{"sim.events_per_s", "1/s", "higher"},
	)
	for _, b := range cpuBuckets {
		out = append(out, layerMetric{"cpu." + b + "_share", "share", "lower"})
	}
	return append(out,
		layerMetric{"kernel.fade_ns_per_link", "ns", "lower"},
		layerMetric{"kernel.cqi_ns", "ns", "lower"},
		layerMetric{"shard.utilization.0", "share", "higher"},
		layerMetric{"shard.utilization.1", "share", "higher"},
		layerMetric{"shard.barrier_stall_ms", "ms", "lower"},
		layerMetric{"shard.windows", "count", "lower"},
		layerMetric{"shard.msgs", "count", "lower"},
		layerMetric{"pawsdb.cache_hit_rate", "share", "higher"},
		layerMetric{"pawsdb.rebuilds", "count", "lower"},
		layerMetric{"pawsdb.query_p50_us", "us", "lower"},
		layerMetric{"pawsdb.query_p99_us", "us", "lower"},
		layerMetric{"pawsdb.rebuild_ms", "ms", "lower"},
		layerMetric{"paws.serve_p50_us", "us", "lower"},
		layerMetric{"paws.serve_p99_us", "us", "lower"},
		layerMetric{"paws.rpc_share", "share", "lower"},
		layerMetric{"spectrum.add_incumbent_us", "us", "lower"},
		layerMetric{"runtime.gc_cycles", "count", "lower"},
		layerMetric{"runtime.gc_pause_ms", "ms", "lower"},
		layerMetric{"runtime.alloc_mb", "MB", "lower"},
		layerMetric{"chaos.world_ms", "ms", "lower"},
		layerMetric{"chaos.contacts", "count", "lower"},
		layerMetric{"chaos.failovers", "count", "lower"},
		layerMetric{"chaos.vacates", "count", "lower"},
		layerMetric{"chaos.records", "count", "lower"},
		layerMetric{"invariant.ns_per_record", "ns", "lower"},
		layerMetric{"gen.due_p50_us", "us", "lower"},
		layerMetric{"gen.due_p99_us", "us", "lower"},
		layerMetric{"gen.late_share", "share", "lower"},
		layerMetric{"gen.max_late_ms", "ms", "lower"},
		layerMetric{"trace.overhead_share", "share", "lower"},
		layerMetric{"trace.spans", "count", "lower"},
	)
}()
