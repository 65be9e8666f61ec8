package main

import (
	"math"
	"sort"
)

// metricDef names one metric the suite prints. BENCHMARK.json lists the
// same names, units, directions and bounds; a test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, share of the parent's median
}

// endToEnd are the metrics a user of a running lirad would see. Every
// workload prints every one of them (tracing off). Each bound is at least
// three times the widest spread (interquartile range ÷ median over ten
// seeds) any workload showed on the 2-core reference host; README.md,
// "Noise", has the table.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"update_to_result_p50_ms", "ms", "lower", 0.20},
	{"update_to_result_p99_ms", "ms", "lower", 0.10},
	{"probe_hit_share", "ratio", "higher", 0.01},
	{"applied_upd_per_s", "upd/s", "higher", 0.05},
	{"delivered_share", "ratio", "higher", 0.05},
	{"sustainable_upd_per_s", "upd/s", "higher", 0.25},
	{"server_cpu_s_per_mupd", "s/Mupd", "lower", 0.20},
	{"server_cpu_cores", "cores", "lower", 0.20},
	{"server_rss_mb", "MB", "lower", 0.10},
	{"query_pos_err_m", "m", "lower", 0.15},
	{"update_fraction", "ratio", "lower", 0.05},
}

// ladderRates label the ingest_ramp steps in per-layer metric names.
var ladderRates = []string{"100k", "200k", "400k", "800k", "1600k"}

// perLayer are the single-layer metrics; layer names are the repo's
// packages. They carry no bound. Metrics marked (live) come from the
// socket run, the rest from the in-process traced pass.
var perLayer = func() []metricDef {
	m := []metricDef{
		{Name: "wire.encode_batch_ns_per_rec", Unit: "ns", Better: "lower"},
		{Name: "wire.batch_bytes_per_rec", Unit: "B", Better: "lower"},
		{Name: "wire.frame_read_ns_per_frame", Unit: "ns", Better: "lower"},
		{Name: "wire.decode_batch_ns_per_rec", Unit: "ns", Better: "lower"},
		{Name: "wire.decode_batch_allocs_per_rec", Unit: "count", Better: "lower"},
		{Name: "wire.encode_result_ns_per_member", Unit: "ns", Better: "lower"},
		{Name: "wire.decode_result_ns_per_member", Unit: "ns", Better: "lower"},
		{Name: "wire.encode_assignment_us", Unit: "us", Better: "lower"},
		{Name: "wire.decode_assignment_us", Unit: "us", Better: "lower"},
		{Name: "wire.assignment_bytes", Unit: "B", Better: "lower"},
		{Name: "netsvc.frames_read_batch", Unit: "count", Better: "lower"},      // (live)
		{Name: "netsvc.records_offered", Unit: "count", Better: "higher"},       // (live)
		{Name: "netsvc.records_invalid", Unit: "count", Better: "lower"},        // (live)
		{Name: "netsvc.records_preshed", Unit: "count", Better: "lower"},        // (live)
		{Name: "netsvc.result_frames_sent", Unit: "count", Better: "higher"},    // (live)
		{Name: "netsvc.assignment_frames_sent", Unit: "count", Better: "lower"}, // (live)
		{Name: "netsvc.ledger_violations", Unit: "count", Better: "lower"},      // (live)
		{Name: "netsvc.ticks_per_s", Unit: "1/s", Better: "higher"},             // (live)
		{Name: "netsvc.register_p50_ms", Unit: "ms", Better: "lower"},           // (live)
		{Name: "netsvc.register_p95_ms", Unit: "ms", Better: "lower"},           // (live)
	}
	for _, r := range ladderRates { // (live), zero off ingest_ramp
		m = append(m,
			metricDef{Name: "netsvc.step_" + r + "_p99_ms", Unit: "ms", Better: "lower"},
			metricDef{Name: "netsvc.step_" + r + "_shed_share", Unit: "ratio", Better: "lower"})
	}
	return append(m,
		metricDef{Name: "netsvc.stats_snapshot_ns_per_node", Unit: "ns", Better: "lower"},
		metricDef{Name: "netsvc.residue_cpu_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "queue.offer_ns_per_rec", Unit: "ns", Better: "lower"},
		metricDef{Name: "queue.poll_ns_per_rec", Unit: "ns", Better: "lower"},
		metricDef{Name: "cqserver.ingest_ns_per_rec", Unit: "ns", Better: "lower"},
		metricDef{Name: "shard.ingest_ns_per_rec", Unit: "ns", Better: "lower"},
		metricDef{Name: "cqserver.drain_ns_per_rec", Unit: "ns", Better: "lower"},
		metricDef{Name: "shard.drain_ns_per_rec", Unit: "ns", Better: "lower"},
		metricDef{Name: "engine.queue_depth_peak", Unit: "count", Better: "lower"}, // (live)
		metricDef{Name: "engine.ring_shed", Unit: "count", Better: "lower"},        // (live)
		metricDef{Name: "motion.apply_ns_per_rec", Unit: "ns", Better: "lower"},
		metricDef{Name: "motion.predict_ns_per_node", Unit: "ns", Better: "lower"},
		metricDef{Name: "cqindex.rebuild_ns_per_node", Unit: "ns", Better: "lower"},
		metricDef{Name: "cqindex.query_ns_per_member", Unit: "ns", Better: "lower"},
		metricDef{Name: "cqindex.inc_put_ns_per_move", Unit: "ns", Better: "lower"},
		metricDef{Name: "cqindex.inc_compact_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "cqserver.evaluate_ns_per_node", Unit: "ns", Better: "lower"},
		metricDef{Name: "shard.evaluate_ns_per_node", Unit: "ns", Better: "lower"},
		metricDef{Name: "engine.evaluate_allocs_per_tick", Unit: "count", Better: "lower"},
		metricDef{Name: "engine.result_members_per_tick", Unit: "count", Better: "higher"},
		metricDef{Name: "statgrid.observe_ns_per_node", Unit: "ns", Better: "lower"},
		metricDef{Name: "statgrid.set_queries_us_per_query", Unit: "us", Better: "lower"},
		metricDef{Name: "partition.gridreduce_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "partition.regions", Unit: "count", Better: "higher"},
		metricDef{Name: "throttler.set_throttlers_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "throttler.budget_slack", Unit: "ratio", Better: "lower"},
		metricDef{Name: "controlplane.adapt_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "controlplane.adaptations", Unit: "count", Better: "higher"}, // (live)
		metricDef{Name: "basestation.deploy_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "basestation.regions_per_station", Unit: "count", Better: "lower"},
		metricDef{Name: "basestation.broadcast_bytes", Unit: "B", Better: "lower"},
		metricDef{Name: "mobilenode.compile_us", Unit: "us", Better: "lower"},
		metricDef{Name: "mobilenode.delta_at_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "mobilenode.suppressed_share", Unit: "ratio", Better: "higher"},
		metricDef{Name: "gen.busy_share", Unit: "ratio", Better: "lower"}, // (live)
		metricDef{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},   // (live)
		metricDef{Name: "gen.sent", Unit: "count", Better: "higher"},      // (live)
		metricDef{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "trace.ingest_group_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "trace.evaluate_group_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "trace.control_group_share", Unit: "ratio", Better: "lower"},
	)
}()

// pickPercentile returns the highest reportable percentile for n samples:
// the highest of the candidates with at least ten samples beyond it, so
// p99 needs 1000 samples. Zero means even the median is not supported.
func pickPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 75, 90, 95, 98, 99} {
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// quantile returns the nearest-rank p-th percentile of xs (unsorted).
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, p)
}

// tailPercentile returns the p-th percentile of xs, or the highest
// percentile the sample count supports when that is lower than p.
func tailPercentile(xs []float64, p float64) float64 {
	if sup := pickPercentile(len(xs)); sup < p {
		p = math.Max(sup, 50)
	}
	return quantile(xs, p)
}
