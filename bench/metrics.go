package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root carries the same list (plus the regression bound of each end-to-end
// metric); a test keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of the untraced pass. Every workload reports
// every one; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
}

// perLayer are the metrics of the traced pass, prefixed with the package
// under internal/ they measure. A workload that does not exercise a layer
// reports 0 for it.
var perLayer = []metricDef{
	{"bench.trace_overhead_frac", "frac", "lower"},

	{"sim.events", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"sim.pending_max", "count", "lower"},
	{"sim.push_pop_ns", "ns", "lower"},
	{"sim.share_of_wall", "frac", "lower"},

	{"cluster.new_ms", "ms", "lower"},
	{"cluster.alloc_release_ns_per_exec", "ns", "lower"},

	{"graphlet.partition_us_per_job", "us", "lower"},
	{"graphlet.per_job", "count", "lower"},

	{"shuffle.cost_ns_per_edge", "ns", "lower"},
	{"shuffle.edges", "count", "lower"},
	{"shuffle.direct_frac", "frac", "higher"},
	{"shuffle.local_frac", "frac", "lower"},
	{"shuffle.remote_frac", "frac", "lower"},
	{"shuffle.cw_put_ns_per_kb", "ns", "lower"},
	{"shuffle.cw_get_ns_per_kb", "ns", "lower"},

	{"core.submit_us_p50", "us", "lower"},
	{"core.submit_us_p99", "us", "lower"},
	{"core.finish_us_p50", "us", "lower"},
	{"core.finish_us_p99", "us", "lower"},
	{"core.ns_per_event", "ns", "lower"},
	{"core.actions_per_event", "count", "lower"},
	{"core.alloc_bytes_per_event", "B", "lower"},
	{"core.sched_queue_max", "count", "lower"},
	{"core.share_of_wall", "frac", "lower"},

	{"sched.joborder_calls", "count", "lower"},
	{"sched.joborder_us_p50", "us", "lower"},
	{"sched.joborder_us_p99", "us", "lower"},
	{"sched.items_per_call", "count", "lower"},
	{"sched.proportion_calls", "count", "lower"},
	{"sched.preempt_calls", "count", "lower"},
	{"sched.busy_frac", "frac", "lower"},
	{"sched.reclaims", "count", "lower"},

	{"simrun.makespan_s", "s", "lower"},
	{"simrun.event_us_p50", "us", "lower"},
	{"simrun.event_us_p99", "us", "lower"},
	{"simrun.event_us_max", "us", "lower"},
	{"simrun.self_frac", "frac", "lower"},
	{"simrun.alloc_mb", "MiB", "lower"},
	{"simrun.gc_cpu_frac", "frac", "lower"},
	{"simrun.num_gc", "count", "lower"},
	{"simrun.heap_peak_mb", "MiB", "lower"},

	{"obs.on_overhead_frac", "frac", "lower"},
	{"obs.events", "count", "lower"},

	{"trace.generate_ms", "ms", "lower"},
	{"trace.write_us_per_job", "us", "lower"},
	{"trace.read_us_per_job", "us", "lower"},
	{"trace.bytes_per_job", "B", "lower"},

	{"flow.offer_ns", "ns", "lower"},
	{"flow.admitted", "count", "higher"},
	{"flow.queued", "count", "lower"},
	{"flow.shed", "count", "lower"},
	{"flow.decisions", "count", "lower"},
	{"flow.residual_frac", "frac", "lower"},

	{"rpc.echo_rtt_us_p50", "us", "lower"},
	{"rpc.echo_rtt_us_p99", "us", "lower"},
	{"rpc.gob_ns_per_kb", "ns", "lower"},

	{"engine.q1_ms", "ms", "lower"},
	{"engine.q3_ms", "ms", "lower"},
	{"engine.q6_ms", "ms", "lower"},
	{"engine.q12_ms", "ms", "lower"},
	{"engine.task_us_p50", "us", "lower"},
	{"engine.task_us_p99", "us", "lower"},
	{"engine.tasks", "count", "lower"},
	{"engine.dispatch_ms_per_query", "ms", "lower"},
	{"engine.encode_ns_per_row", "ns", "lower"},
	{"engine.decode_ns_per_row", "ns", "lower"},
	{"engine.store_put_ns_per_kb", "ns", "lower"},
	{"engine.store_get_ns_per_kb", "ns", "lower"},
	{"engine.store_puts_per_pass", "count", "lower"},
	{"engine.alloc_mb_per_pass", "MiB", "lower"},
	{"engine.mallocs_per_pass", "count", "lower"},
	{"engine.row_path_frac", "frac", "lower"},
}

// measurement is one metric value as it appears in the result line.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

// fill builds the metrics map for defs from vals; a metric without a value
// reports 0.
func fill(defs []metricDef, vals map[string]float64) map[string]measurement {
	out := make(map[string]measurement, len(defs))
	for _, d := range defs {
		out[d.Name] = measurement{Value: vals[d.Name], Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			panic("bench: value for undeclared metric " + name)
		}
	}
	return out
}

// benchmarkSpec is the part of BENCHMARK.json the comparator needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
