package main

import (
	"encoding/json"
)

// metricDef is one line of the contract in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is BENCHMARK.json's run_seconds: 4 + 22 × 3 runs of set-up
// (2, 1 and 5 times), this many measured seconds and tear-down fit the
// driver's 3420 s with more than 10 % to spare, cold build included
// (benchmark/README.md).
const runSeconds = 32

// endToEnd are the bounded metrics: what an operator of the system sees
// and this host can measure steadily. bound is the share of the parent's
// median by which the metric may worsen: max(0.05, 3 × the worst spread —
// IQR ÷ median over ten runs — seen in the steadiness series of
// benchmark/BASELINE.json), capped at the contract's 0.25. setup_s is here
// because the contract requires it: it follows the host's speed as the
// time-based readings below do, and 0.25 is the largest bound allowed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.10},
	{"wire_bytes_per_doc", "B", "lower", 0.05},
}

// unbounded are the three time-based end-to-end readings every run measures
// and prints — closed-loop throughput, CPU per document, receipt latency —
// but no bound gates: on this shared two-core host their spread between runs
// of the same code reached 35 %, 42 % and 44 % (match_heavy), above the 0.25 the contract allows a bound, because the host's speed
// shifts by a third for minutes at a time. They are therefore reported in
// the per-layer list (as e2e.<name>) and compared by paired runs, not by a
// bound unchanged code would trip.
var unbounded = []metricDef{
	{Name: "docs_per_sec", Unit: "docs/s", Better: "higher"},
	{Name: "cpu_ms_per_doc", Unit: "ms", Better: "lower"},
	{Name: "receipt_p50_ms", Unit: "ms", Better: "lower"},
}

// perLayer are the single-layer metrics of the traced run, grouped by the
// module they belong to (benchmark/README.md says which end-to-end metric
// each should move, and where it must not).
var perLayer = []metricDef{
	{Name: "text.terms_ns_per_doc", Unit: "ns", Better: "lower"},
	{Name: "bloom.contains_ns_per_term", Unit: "ns", Better: "lower"},
	{Name: "bloom.pass_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ring.home_ns_per_term", Unit: "ns", Better: "lower"},

	{Name: "node.entry.home_rpcs_per_doc", Unit: "count", Better: "lower"},
	{Name: "node.entry.home_rpc_p50_us", Unit: "us", Better: "lower"},
	{Name: "node.entry.home_rpc_p99_us", Unit: "us", Better: "lower"},
	{Name: "node.entry.self_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "node.home.handle_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "node.home.skew", Unit: "ratio", Better: "lower"},

	{Name: "index.match_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "index.probe_match_ns_per_doc", Unit: "ns", Better: "lower"},
	{Name: "index.register_ns_per_filter", Unit: "ns", Better: "lower"},
	{Name: "index.unregister_ns_per_filter", Unit: "ns", Better: "lower"},
	{Name: "index.bytes_per_filter", Unit: "B", Better: "lower"},
	{Name: "index.postings_scanned_per_doc", Unit: "count", Better: "lower"},
	{Name: "index.posting_lists_per_doc", Unit: "count", Better: "lower"},
	{Name: "index.match_ratio", Unit: "ratio", Better: "higher"},
	{Name: "index.covers", Unit: "count", Better: "lower"},
	{Name: "index.cover_fanout_milli", Unit: "count", Better: "higher"},

	{Name: "node.grid.column_rpcs_per_doc", Unit: "count", Better: "lower"},
	{Name: "node.grid.column_rpc_mean_us", Unit: "us", Better: "lower"},
	{Name: "node.grid.failovers", Unit: "count", Better: "lower"},
	{Name: "node.grid.degraded", Unit: "count", Better: "lower"},

	{Name: "alloc.compute_us", Unit: "us", Better: "lower"},
	{Name: "realloc.prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "realloc.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "realloc.round_ms", Unit: "ms", Better: "lower"},
	{Name: "realloc.migrated_filters", Unit: "count", Better: "lower"},

	{Name: "node.write.register_us_per_op", Unit: "us", Better: "lower"},
	{Name: "node.write.unregister_us_per_op", Unit: "us", Better: "lower"},

	{Name: "node.route.rpcs_per_doc", Unit: "count", Better: "lower"},
	{Name: "node.route.subs_per_doc", Unit: "count", Better: "lower"},
	{Name: "node.route.lost", Unit: "count", Better: "lower"},
	{Name: "node.route.us_per_doc", Unit: "us", Better: "lower"},

	{Name: "transport.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "transport.syscalls_per_doc", Unit: "count", Better: "lower"},
	{Name: "transport.frames_per_syscall", Unit: "ratio", Better: "higher"},
	{Name: "transport.bytes_per_doc", Unit: "B", Better: "lower"},
	{Name: "transport.queued_bytes_max", Unit: "B", Better: "lower"},

	{Name: "resilience.retries", Unit: "count", Better: "lower"},
	{Name: "resilience.giveups", Unit: "count", Better: "lower"},
	{Name: "resilience.breaker_open", Unit: "count", Better: "lower"},

	{Name: "delivery.hub_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "delivery.frames_per_syscall", Unit: "ratio", Better: "higher"},
	{Name: "delivery.syscalls_per_doc", Unit: "count", Better: "lower"},
	{Name: "delivery.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "delivery.pending_max", Unit: "count", Better: "lower"},
	{Name: "delivery.ack_p50_us", Unit: "us", Better: "lower"},
	{Name: "delivery.dropped", Unit: "count", Better: "lower"},
	{Name: "delivery.coalesced", Unit: "count", Better: "lower"},

	{Name: "proc.cpu_ms_per_doc.daemons", Unit: "ms", Better: "lower"},
	{Name: "proc.cpu_ms_per_doc.harness", Unit: "ms", Better: "lower"},
	{Name: "proc.cpu_util", Unit: "ratio", Better: "lower"},
	{Name: "proc.ctx_switches_per_doc", Unit: "count", Better: "lower"},
	{Name: "proc.allocs_per_doc", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_kb_per_doc", Unit: "KB", Better: "lower"},
	{Name: "proc.gc_cycles_per_kdoc", Unit: "count", Better: "lower"},

	{Name: "gen.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.inflight_max", Unit: "count", Better: "lower"},
	{Name: "e2e.backlog_growth", Unit: "ratio", Better: "lower"},
	{Name: "e2e.docs_per_sec", Unit: "docs/s", Better: "higher"},
	{Name: "e2e.cpu_ms_per_doc", Unit: "ms", Better: "lower"},
	{Name: "e2e.receipt_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.docs_per_sec_c1", Unit: "docs/s", Better: "higher"},
	{Name: "e2e.events_per_doc", Unit: "count", Better: "higher"},
	{Name: "e2e.publish_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.publish_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.receipt_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.residual_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
}

// contractJSON renders BENCHMARK.json from the tables above; a unit test
// holds the checked-in file equal to it.
func contractJSON() string {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, sp := range specs {
		doc.Workloads = append(doc.Workloads, workloadDef{sp.name, sp.why})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDef{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static data
	}
	return string(out)
}
