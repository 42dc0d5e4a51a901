package main

import (
	"encoding/json"
	"strings"
)

// metricDef declares one metric: the single place its unit, direction,
// clock and bound are written down. BENCHMARK.json is printed from
// these tables (-spec) and the smoke test holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline median by which the metric
	// may worsen before it counts as a regression (end-to-end only).
	Bound float64
	// Virtual metrics are simulated time and counts: they repeat
	// exactly for a seed. The others are host time and allocations of
	// the simulator itself, reported as medians of repetitions.
	Virtual bool
	// Contract marks the end-to-end metrics every workload reports and
	// BENCHMARK.json lists. The rest apply to some workloads only and
	// appear in the full run's results.
	Contract bool
}

// Units of the virtual clock say so (virtual_us, not us): a reader, or
// a checker of measured times, must not take a simulated duration that
// repeats exactly for a stuck stopwatch.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_wall_s", Unit: "1/s", Better: "higher", Bound: 0.25, Contract: true},
	{Name: "allocs_per_op", Unit: "allocs/op", Better: "lower", Bound: 0.08, Contract: true},
	{Name: "alloc_bytes_per_op", Unit: "B/op", Better: "lower", Bound: 0.08, Contract: true},
	{Name: "virtual_elapsed_s", Unit: "virtual_s", Better: "lower", Bound: 0.05, Virtual: true, Contract: true},
	{Name: "virtual_ops_per_s", Unit: "ops/virtual_s", Better: "higher", Bound: 0.05, Virtual: true, Contract: true},
	{Name: "mean_virtual_us", Unit: "virtual_us", Better: "lower", Bound: 0.20, Virtual: true, Contract: true},
	{Name: "p50_virtual_us", Unit: "virtual_us", Better: "lower", Bound: 0.10, Virtual: true},
	{Name: "p99_virtual_us", Unit: "virtual_us", Better: "lower", Bound: 0.15, Virtual: true, Contract: true},
	{Name: "knee_virtual_ops_per_s", Unit: "ops/virtual_s", Better: "higher", Bound: 0, Virtual: true},
	{Name: "recovery_virtual_ms", Unit: "virtual_ms", Better: "lower", Bound: 0.01, Virtual: true},
	{Name: "failed_ops_frac", Unit: "frac", Better: "lower", Bound: 0, Virtual: true},
}

// counterDefs are the per-layer figures of the full-stack runs.
var counterDefs = []metricDef{
	{Name: "sim.events_per_op", Unit: "events/op", Better: "lower", Virtual: true},
	{Name: "sim.wall_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.wall_us_per_virtual_ms", Unit: "us/virtual_ms", Better: "lower"},
	{Name: "netsim.frames_per_op", Unit: "frames/op", Better: "lower", Virtual: true},
	{Name: "netsim.wire_bytes_per_op", Unit: "B/op", Better: "lower", Virtual: true},
	{Name: "netsim.interrupts_per_op", Unit: "1/op", Better: "lower", Virtual: true},
	{Name: "netsim.bus_util", Unit: "frac", Better: "lower", Virtual: true},
	{Name: "netsim.drops", Unit: "count", Better: "lower", Virtual: true},
	{Name: "amoeba.cpu_util_max", Unit: "frac", Better: "lower", Virtual: true},
	{Name: "amoeba.cpu_util_seq", Unit: "frac", Better: "lower", Virtual: true},
	{Name: "amoeba.kernel_cpu_util_max", Unit: "frac", Better: "lower", Virtual: true},
	{Name: "group.sends_per_op", Unit: "frames/op", Better: "lower", Virtual: true},
	{Name: "group.pb_share", Unit: "frac", Better: "higher", Virtual: true},
	{Name: "group.ops_per_batch", Unit: "ops/frame", Better: "higher", Virtual: true},
	{Name: "group.retransmits", Unit: "count", Better: "lower", Virtual: true},
	{Name: "group.gap_requests", Unit: "count", Better: "lower", Virtual: true},
	{Name: "group.elections", Unit: "count", Better: "lower", Virtual: true},
	{Name: "group.takeovers", Unit: "count", Better: "lower", Virtual: true},
	{Name: "group.recovery_virtual_ms", Unit: "virtual_ms", Better: "lower", Virtual: true},
	{Name: "rts.local_read_share", Unit: "frac", Better: "higher", Virtual: true},
	{Name: "rts.bcast_writes_per_op", Unit: "1/op", Better: "lower", Virtual: true},
	{Name: "rts.remote_ops_per_op", Unit: "1/op", Better: "lower", Virtual: true},
	{Name: "rts.guard_waits", Unit: "count", Better: "lower", Virtual: true},
	{Name: "rts.ops_retried", Unit: "count", Better: "lower", Virtual: true},
	{Name: "rts.batch_frames_per_op", Unit: "frames/op", Better: "lower", Virtual: true},
	{Name: "apps.kv.all_p50_virtual_us", Unit: "virtual_us", Better: "lower", Virtual: true},
	{Name: "apps.kv.get_p50_virtual_us", Unit: "virtual_us", Better: "lower", Virtual: true},
	{Name: "apps.kv.get_p99_virtual_us", Unit: "virtual_us", Better: "lower", Virtual: true},
	{Name: "apps.kv.put_p50_virtual_us", Unit: "virtual_us", Better: "lower", Virtual: true},
	{Name: "apps.kv.put_p99_virtual_us", Unit: "virtual_us", Better: "lower", Virtual: true},
	{Name: "apps.kv.get_wait_virtual_us", Unit: "virtual_us", Better: "lower", Virtual: true},
	{Name: "apps.kv.put_wait_virtual_us", Unit: "virtual_us", Better: "lower", Virtual: true},
	{Name: "apps.kv.knee_virtual_ops_per_s", Unit: "ops/virtual_s", Better: "higher", Virtual: true},
}

// perLayer lists every per-layer metric: the counters, the ladder's
// rungs, and the profiled repetition's shares.
var perLayer = func() []metricDef {
	defs := append([]metricDef(nil), counterDefs...)
	for i := range rungs {
		for _, name := range rungs[i].metricNames() {
			d := metricDef{Name: name, Better: "lower"}
			switch {
			case strings.HasSuffix(name, ".wall_ns_per_op"):
				d.Unit = "ns"
			case strings.HasSuffix(name, ".allocs_per_op"):
				d.Unit = "allocs/op"
			case strings.HasSuffix(name, ".events_per_op"):
				d.Unit, d.Virtual = "events/op", true
			default:
				d.Unit, d.Virtual = "virtual_us", true
			}
			defs = append(defs, d)
		}
	}
	for _, name := range profileBuckets {
		defs = append(defs, metricDef{Name: name, Unit: "frac", Better: "lower"})
	}
	return append(defs, metricDef{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower"})
}()

// runSeconds is how long one driver run measures. A run then takes
// about 23 s with its set-ups, so the driver's 4 + 22 x 5 runs and two
// 12 s builds take about 2700 of its 3420 s.
const runSeconds = 20

// benchmarkJSON renders BENCHMARK.json.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		if d.Contract {
			spec.EndToEnd = append(spec.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
		}
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	return append(data, '\n'), err
}
