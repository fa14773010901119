package main

// perLayer lists every per-layer metric with its unit. A traced run prints
// all of them on every workload; a layer the workload bypasses reads 0.
var perLayer = []struct{ name, unit string }{
	{"congest.setup_ms", "ms"},
	{"congest.setup_alloc_mb", "MB"},
	{"congest.setup_allocs", "count"},
	{"congest.teardown_ms", "ms"},
	{"congest.round_ms", "ms"},
	{"congest.round_allocs", "count"},
	{"congest.collect_ms", "ms"},
	{"congest.deliver_ms", "ms"},
	{"congest.gap_ms", "ms"},
	{"congest.rounds", "count"},
	{"congest.messages", "count"},
	{"congest.bytes", "count"},
	{"adversary.intercept_ms", "ms"},
	{"adversary.corrupted_edge_rounds", "count"},
	{"resilient.build_ms", "ms"},
	{"resilient.round_overhead", "ratio"},
	{"resilient.msg_overhead", "ratio"},
	{"graph.build_ms", "ms"},
	{"plan.cell_ms", "ms"},
	{"plan.worker_busy", "ratio"},
	{"plan.first_record_ms", "ms"},
	{"resultcache.hit_ratio", "ratio"},
	{"resultcache.hits", "count"},
	{"resultcache.misses", "count"},
	{"resultcache.puts", "count"},
	{"resultcache.evictions", "count"},
	{"mobilesimd.ttfr_ms", "ms"},
	{"mobilesimd.overhead_ms", "ms"},
	{"mobilesimd.server_p50_ms", "ms"},
	{"mobilesimd.rejected", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
}

const mib = 1 << 20

// layerMetrics derives the engine, adversary, build and runtime metrics
// every in-process workload shares from the traced window's spans and
// counters; workloads then fill in their own (plan, cache, server).
func layerMetrics(tr *tracer, w *window) map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	allocs := func(name string, mb bool) float64 {
		var xs []float64
		for _, s := range tr.named(name) {
			if mb {
				xs = append(xs, float64(s.AllocBytes)/mib)
			} else {
				xs = append(xs, float64(s.Allocs))
			}
		}
		return median(xs)
	}
	for _, name := range []string{"setup", "teardown", "round", "collect", "deliver", "gap"} {
		set("congest."+name+"_ms", tr.medianMS("congest."+name))
	}
	set("congest.setup_alloc_mb", allocs("congest.setup", true))
	set("congest.setup_allocs", allocs("congest.setup", false))
	set("congest.round_allocs", allocs("congest.round", false))
	set("congest.rounds", float64(w.counts.rounds))
	set("congest.messages", float64(w.counts.messages))
	set("congest.bytes", float64(w.counts.bytes))
	set("adversary.intercept_ms", tr.medianMS("adversary.intercept"))
	set("adversary.corrupted_edge_rounds", float64(w.counts.corrupted))
	set("resilient.build_ms", tr.medianMS("resilient.build"))
	set("graph.build_ms", tr.medianMS("graph.build"))
	if ops := float64(len(w.opMS)); ops > 0 {
		set("runtime.alloc_mb_per_op", float64(w.rtEnd.allocBytes-w.rtStart.allocBytes)/mib/ops)
		set("runtime.gc_cycles", float64(w.rtEnd.gcCycles-w.rtStart.gcCycles)/ops)
	}
	set("runtime.gc_cpu_fraction", ratio(w.rtEnd.gcCPU-w.rtStart.gcCPU, w.rtEnd.totalCPU-w.rtStart.totalCPU))
	return m
}
