package main

import "time"

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units (a self-test holds them
// equal).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. On closed-loop workloads the client's request is a whole
// session; on serve-churn it is one HTTP request (a lifecycle counts as
// one).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"session_p50_s", "s"},
	{"session_tail_s", "s"},
	{"sessions_per_s", "1/s"},
	{"alloc_mib_per_session", "MiB"},
	{"peak_heap_mib", "MiB"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
	{"max_rps", "1/s"},
}

// traceLayers are the layers whose self time the traced run reports as
// self.<layer>_s.
var traceLayers = []string{"scenario", "core", "tier", "shard", "remote", "sinr", "capacity", "schedule", "decaynet", "server", "sim", "loadgen"}

// perLayer are the traced run's metrics. A layer that does no work on a
// workload reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.zeta_s", "s"},
		{"core.phi_s", "s"},
		{"core.dense_s", "s"},
		{"core.zeta_sampled_s", "s"},
		{"core.phi_sampled_s", "s"},
		{"core.sampled_triplets", "count"},
		{"scenario.build_s", "s"},
		{"scenario.pair_ns", "ns"},
		{"tier.build_s", "s"},
		{"tier.index_candidates", "count"},
		{"tier.indexed_rows", "count"},
		{"tier.index_exhausted", "count"},
		{"tier.bytes", "B"},
		{"shard.replica_s", "s"},
		{"remote.sync_s", "s"},
		{"remote.zeta_s", "s"},
		{"remote.phi_s", "s"},
		{"remote.bytes_out", "B"},
		{"remote.bytes_in", "B"},
		{"remote.retries", "count"},
		{"sinr.affectance_s", "s"},
		{"sinr.validate_s", "s"},
		{"capacity.s", "s"},
		{"capacity.chosen_ratio", "ratio"},
		{"schedule.s", "s"},
		{"schedule.slots", "count"},
		{"decaynet.new_engine_s", "s"},
		{"decaynet.update_p50_ms", "ms"},
		{"decaynet.update_p99_ms", "ms"},
		{"decaynet.updates", "count"},
		{"server.self_p50_ms", "ms"},
		{"server.self_p99_ms", "ms"},
		{"server.bytes_per_req", "B"},
		{"sim.run_p50_ms", "ms"},
		{"sim.runs", "count"},
		{"loadgen.lag_p99_ms", "ms"},
		{"loadgen.queue_p99_ms", "ms"},
		{"runtime.gc_cycles_per_session", "count"},
		{"runtime.gc_pause_ms_per_session", "ms"},
		{"trace.coverage", "ratio"},
		{"trace.overhead_s", "s"},
		{"trace.session_p50_s", "s"},
	}
	for _, l := range traceLayers {
		defs = append(defs, metricDef{"self." + l + "_s", "s"})
	}
	return defs
}()

// spanMetrics maps span names to the per-layer metric holding the median
// duration of those spans, in seconds.
var spanMetrics = map[string]string{
	"core.zeta":            "core.zeta_s",
	"core.phi":             "core.phi_s",
	"core.dense":           "core.dense_s",
	"core.zeta_sampled":    "core.zeta_sampled_s",
	"core.phi_sampled":     "core.phi_sampled_s",
	"scenario.build":       "scenario.build_s",
	"tier.build":           "tier.build_s",
	"shard.replica":        "shard.replica_s",
	"remote.sync":          "remote.sync_s",
	"remote.zeta":          "remote.zeta_s",
	"remote.phi":           "remote.phi_s",
	"sinr.affectance":      "sinr.affectance_s",
	"sinr.validate":        "sinr.validate_s",
	"capacity.algorithm1":  "capacity.s",
	"schedule.by_capacity": "schedule.s",
	"decaynet.new_engine":  "decaynet.new_engine_s",
}

// minCoverage is the share of a unit of work's wall time its top-level
// spans must cover for the per-layer breakdown to be trusted.
const minCoverage = 0.95

// fillPerLayer sets every per-layer metric to 0, then fills those the
// spans determine: median span durations, layer self times per unit of
// work (root span) and the coverage of the units by their top-level
// spans: the worst unit's when perUnit (closed-loop sessions), else all
// units' together (served requests, many of them a millisecond long).
func fillPerLayer(rep *report, spans []span, perUnit bool) {
	for _, m := range perLayer {
		rep.metrics[m.name] = 0
	}
	for name, metric := range spanMetrics {
		if d := durations(spans, name); len(d) > 0 {
			rep.metrics[metric] = median(d)
		}
	}
	tree := newSpanTree(spans)
	rs := roots(spans)
	if len(rs) == 0 {
		return
	}
	self := tree.selfByLayer()
	for _, l := range traceLayers {
		rep.metrics["self."+l+"_s"] = self[l].Seconds() / float64(len(rs))
	}
	worst := 1.0
	var cov, wall time.Duration
	for _, r := range rs {
		worst = min(worst, tree.coverage(r))
		cov += r.dur() - tree.self(r)
		wall += r.dur()
	}
	c := float64(cov) / float64(max(wall, 1))
	if perUnit {
		c = worst
	}
	rep.metrics["trace.coverage"] = c
	if c < minCoverage {
		rep.fail("trace: top-level spans cover %.1f%% of the units' wall time (< %.0f%%)", 100*c, 100*minCoverage)
	}
	rep.notes["trace.spans"] = len(spans)
}
