package main

import (
	"masq/internal/trace"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// metrics with the same units and directions (benchmark_test.go checks).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees. Every workload
// reports all of them; lat_* and virt_ops_per_s are in virtual time (the
// modelled MasQ, identical for a seed), the rest in wall time (the
// simulator on this host, the times scaled to a quiet host's speed by the
// reference loop). Each workload's operation and headline latency are
// defined in README.md. Each bound is at least three times the largest
// spread between seeds measured on a 2-vCPU VM (README.md).
var endToEnd = []metricDef{
	{"lat_p50_us", "us", "lower", 0.1},
	{"lat_p99_us", "us", "lower", 0.2},
	{"virt_ops_per_s", "1/s", "higher", 0.05},
	{"wall_us_per_op", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.05},
}

// verbNames are the verbs calls the benchmark times on the connection
// path, in call order.
var verbNames = []string{"create_cq", "create_qp", "modify_init", "modify_rtr", "modify_rts", "destroy_qp", "destroy_cq"}

// selfLayers are the trace layers whose virtual self time a traced run
// reports per connection, with their metric names.
var selfLayers = []struct {
	layer  trace.Layer
	metric string
}{
	{trace.LayerVerbs, "verbs"},
	{trace.LayerVirtio, "virtio"},
	{trace.LayerMasqFrontend, "masq_frontend"},
	{trace.LayerMasqBackend, "masq_backend"},
	{trace.LayerRConnrename, "rconnrename"},
	{trace.LayerRConntrack, "rconntrack"},
	{trace.LayerController, "controller"},
	{trace.LayerRNIC, "rnic"},
	{trace.LayerOOB, "oob"},
}

// gauges are per-layer values read at the end of the timed phase; every
// other counter is reported as its change across the timed phase.
var gauges = map[string]bool{
	"rnic.live_qps_end":     true,
	"overlay.rules":         true,
	"overlay.index_buckets": true,
	"ctrl.queue_hwm":        true,
	"ctrl.repl_lag_max":     true,
}

// perLayer are the metrics of a traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	c := func(name string) metricDef { return metricDef{Name: name, Unit: "count", Better: "lower"} }
	defs := []metricDef{
		c("simtime.events"),
		{Name: "simtime.events_per_op", Unit: "count", Better: "lower"},
		{Name: "simtime.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "simtime.allocs_per_event", Unit: "count", Better: "lower"},
		{Name: "simtime.alloc_bytes_per_event", Unit: "B", Better: "lower"},
		c("runtime.gc_cycles"),
		{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
		c("rnic.tx_packets"), c("rnic.rx_packets"), c("rnic.retransmits"), c("rnic.naks"),
		c("rnic.dropped"), c("rnic.async_events"), c("rnic.live_qps_end"),
		c("simnet.frames_delivered"), c("simnet.frames_dropped"),
	}
	for _, v := range verbNames {
		defs = append(defs,
			metricDef{Name: "verbs." + v + "_p50_us", Unit: "us", Better: "lower"},
			metricDef{Name: "verbs." + v + "_p99_us", Unit: "us", Better: "lower"})
	}
	defs = append(defs, c("verbs.wc_errors"),
		metricDef{Name: "masq.cache_hits", Unit: "count", Better: "higher"},
		c("masq.cache_misses"),
		metricDef{Name: "masq.cache_hit_ratio", Unit: "ratio", Better: "higher"},
		c("masq.renames"), c("masq.query_retries"), c("masq.query_failures"), c("masq.invalidations"),
		c("rct.validated"), c("rct.denied"), c("rct.inserted"), c("rct.deleted"), c("rct.resets"),
		c("rct.revalidated"),
		metricDef{Name: "rct.verdict_hit_ratio", Unit: "ratio", Better: "higher"},
		c("rct.incr_scans"), c("rct.skipped_scans"),
		metricDef{Name: "rct.enforce_p50_us", Unit: "us", Better: "lower"},
		metricDef{Name: "rct.enforce_p99_us", Unit: "us", Better: "lower"},
		c("rct.overtaken"),
		c("overlay.rules"), c("overlay.index_buckets"),
		c("ctrl.resolves"), c("ctrl.batch_rpcs"), c("ctrl.renewals"), c("ctrl.updates"),
		c("ctrl.queue_hwm"), c("ctrl.client_retries"), c("ctrl.fenced_writes"), c("ctrl.repl_lag_max"),
		metricDef{Name: "ctrl.wave_ms", Unit: "ms", Better: "lower"},
	)
	for _, l := range selfLayers {
		defs = append(defs, metricDef{Name: "self." + l.metric + "_us", Unit: "us", Better: "lower"})
	}
	defs = append(defs, metricDef{Name: "self.total_us", Unit: "us", Better: "lower"})
	for _, pkg := range cpuPackages {
		defs = append(defs, metricDef{Name: "cpu." + pkg + "_pct", Unit: "%", Better: "lower"})
	}
	return append(defs, metricDef{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "wall.raw_us_per_op", Unit: "us", Better: "lower"},
		metricDef{Name: "wall.ref_ns_per_step", Unit: "ns", Better: "lower"})
}
