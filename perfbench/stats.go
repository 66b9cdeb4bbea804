package main

import (
	"math"
	"sort"
)

// layerUnits are the per_layer metrics of BENCHMARK.json with their units.
var layerUnits = map[string]string{
	"graph.build_s": "s", "graph.builds": "count", "graph.arcs": "count",
	"graph.build_ns_per_arc": "ns", "graph.compile_s": "s",
	"lowerbound.build_s": "s", "lowerbound.verify_s": "s", "lowerbound.builds": "count",
	"core.setup_s": "s", "core.setups": "count",
	"radio.run_s": "s", "radio.runs": "count", "radio.ns_per_step": "ns",
	"radio.ns_per_step.node_faults": "ns", "radio.ns_per_step.arc_faults": "ns",
	"radio.censored_ratio": "ratio",
	"radio.steps":          "count", "radio.transmissions": "count", "radio.receptions": "count",
	"radio.collisions": "count", "radio.useful_ratio": "ratio",
	"fault.links_dropped": "count", "fault.jam_noise": "count",
	"fault.crash_skips": "count", "fault.sleep_skips": "count",
	"pool.busy_ratio":  "ratio",
	"trace.overhead_s": "s",
}

// serveUnits are the per-layer metrics only serve reports. serve is not a
// workload of BENCHMARK.json (RATIONALE.md says why), so they are not in
// its per_layer list.
var serveUnits = map[string]string{
	"service.hit_p50_ms": "ms", "service.miss_p50_ms": "ms", "service.cache_hit_ratio": "ratio",
	"service.rejected": "count", "service.timeouts": "count", "service.errors_5xx": "count",
	"service.queue_depth_max": "count", "service.retained_heap_mb": "MB",
	"loadgen.lat_p50_ms": "ms", "loadgen.lat_p99_ms": "ms", "loadgen.lag_p99_ms": "ms",
	"loadgen.sent": "count", "loadgen.transport_errors": "count",
	"fail_ratio": "ratio",
}

// layerMetrics returns the metrics of each units map with their units,
// valued 0: a layer a workload does not exercise reports 0.
func layerMetrics(units ...map[string]string) map[string]metric {
	m := map[string]metric{}
	for _, us := range units {
		for name, unit := range us {
			m[name] = metric{0, unit}
		}
	}
	return m
}

// percentile returns the nearest-rank p-th percentile of xs (+Inf entries
// stand for failed operations). It does not modify xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// median is the middle value (mean of the two middle values for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

// quartiles returns Q1, Q2, Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	ld := len(s)
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
