package main

import (
	"math"
	"sort"
)

// metricSpec names one reported metric. The tables below are the
// benchmark's contract; metrics_test.go checks them against
// BENCHMARK.json.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are what a sweep user sees, measured with tracing off.
var endToEnd = []metricSpec{
	{"runs_per_s", "runs/s", "higher"},
	{"cpu_ms_per_run", "ms", "lower"},
	{"alloc_bytes_per_run", "B", "lower"},
	{"allocs_per_run", "count", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer come from the traced pass: exact counts from Result and the
// telemetry rollup, span times, and the CPU profile folded by layer.
var perLayer = []metricSpec{
	{"sim.events_per_run", "count", "lower"},
	{"sim.stale_ratio", "ratio", "lower"},
	{"sim.heap_peak", "count", "lower"},
	{"sim.self_pct", "%", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"netem.tx_packets_per_run", "count", "lower"},
	{"netem.drop_ratio", "ratio", "lower"},
	{"netem.self_pct", "%", "lower"},
	{"netem.ns_per_packet", "ns", "lower"},
	{"tcp.retransmits_per_run", "count", "lower"},
	{"tcp.rtos_per_run", "count", "lower"},
	{"tcp.fast_recoveries_per_run", "count", "lower"},
	{"tcp.self_pct", "%", "lower"},
	{"mptcp.sched_picks_per_run", "count", "lower"},
	{"mptcp.dup_ratio", "ratio", "lower"},
	{"mptcp.self_pct", "%", "lower"},
	{"lp.cold_solves_per_run", "count", "lower"},
	{"lp.self_pct", "%", "lower"},
	{"lp.us_per_cold_solve", "us", "lower"},
	{"capture.self_pct", "%", "lower"},
	{"sweep.describe_ms", "ms", "lower"},
	{"sweep.run_ms_p50", "ms", "lower"},
	{"sweep.run_ms_p95", "ms", "lower"},
	{"sweep.self_pct", "%", "lower"},
	{"runlog.accept_us_per_record", "us", "lower"},
	{"runlog.bytes_per_record", "B", "lower"},
	{"runlog.sync_ms_total", "ms", "lower"},
	{"runlog.read_us_per_record", "us", "lower"},
	{"runlog.self_pct", "%", "lower"},
	{"gc.cycles_per_run", "count", "lower"},
	{"gc.self_pct", "%", "lower"},
	{"other.self_pct", "%", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
