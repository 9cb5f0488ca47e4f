package main

import (
	"math"
	"sort"
	"time"
)

// metricDef documents one metric: its unit, which direction is
// better, the module it measures, and the workloads that report it.
// BENCHMARK.json lists the end-to-end metrics the last output line
// carries and every per-layer metric; TestBenchmarkJSONMatchesRegistry
// keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower", "higher" or "exact" (simulated, must not change)
	bound  float64
	module string
	// workloads that report a meaningful value; elsewhere a per-layer
	// metric reads 0.
	workloads []string
	// gated: an end-to-end metric carried on the last output line and
	// bounded in BENCHMARK.json. Ungated end-to-end metrics are printed
	// in the table only: a BENCHMARK.json bound is a share of the median, so
	// a metric must be measured and non-zero on every workload to carry
	// one.
	gated bool
	desc  string
}

var (
	allWorkloads = []string{"fig7-sweep", "filter-check", "record-replay", "daemon-mix"}
	simWorkloads = []string{"fig7-sweep", "filter-check", "record-replay"}
)

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, module: "all", workloads: allWorkloads, gated: true,
		desc: "median over cold child processes of process start to the first timed job: kernel assembly, server start, discarded warm-up"},
	{name: "job_ms_p50", unit: "ms", better: "lower", bound: 0.25, module: "all", workloads: allWorkloads, gated: true,
		desc: "median job latency; simulated workloads count each job at its job key's median over the run's repeats; daemon-mix takes POST-to-done latencies per tenth of the window and reports the median over tenths"},
	{name: "job_ms_p90", unit: "ms", better: "lower", bound: 0.25, module: "all", workloads: allWorkloads, gated: true,
		desc: "90th-percentile job latency, as job_ms_p50; every run holds at least 100 jobs, so at least 10 lie beyond it"},
	{name: "jobs_per_s", unit: "jobs/s", better: "higher", bound: 0.25, module: "all", workloads: allWorkloads, gated: true,
		desc: "jobs completed per second of the measured window"},
	{name: "sim_winstr_per_s", unit: "warp-instr/s", better: "higher", bound: 0.25, module: "gpu", workloads: allWorkloads, gated: true,
		desc: "simulated warp instructions per host second of simulating jobs (record-replay: the record half; daemon-mix: server-side bench job time)"},
	{name: "sim_cycles", unit: "cycles", better: "lower", bound: 0.01, module: "gpu", workloads: allWorkloads, gated: true,
		desc: "simulated cycles summed over the workload's distinct simulated jobs; exact on any machine"},
	{name: "alloc_mb_per_job", unit: "MB", better: "lower", bound: 0.1, module: "all", workloads: allWorkloads, gated: true,
		desc: "heap bytes allocated in the measured window per job, whole process"},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25, module: "all", workloads: allWorkloads, gated: true,
		desc: "median over ten equal slices of the measured window of each slice's peak resident set, sampled every 20 ms"},
	{name: "replay_events_per_s", unit: "events/s", better: "higher", module: "journal", workloads: []string{"record-replay"},
		desc: "replayed warp memory events per host second of journal.Replay"},
	{name: "detect_overhead", unit: "ratio", better: "exact", module: "core", workloads: []string{"fig7-sweep"},
		desc: "geomean over benchmarks of shared+global over off simulated cycles (paper: 1.27 on hardware-validated GPGPU-Sim; this model is not validated against hardware)"},
	{name: "failed_frac", unit: "fraction", better: "lower", module: "all", workloads: allWorkloads,
		desc: "failed, refused or wrong-output jobs and failed host reference checks over attempted"},
}

var perLayer = []metricDef{
	{name: "gpu.sim_self_ms", unit: "ms", better: "lower", module: "gpu", workloads: allWorkloads, desc: "Plan.RunContext time outside detector calls, mean per traced job"},
	{name: "gpu.ns_per_winstr", unit: "ns", better: "lower", module: "gpu", workloads: allWorkloads, desc: "simulator self time per warp instruction"},
	{name: "gpu.alloc_mb", unit: "MB", better: "lower", module: "gpu", workloads: allWorkloads, desc: "heap allocated inside Plan.RunContext, mean per traced job"},
	{name: "gpu.newdevice_ms", unit: "ms", better: "lower", module: "gpu", workloads: allWorkloads, desc: "gpu.NewDevice, mean per traced job"},
	{name: "gpu.warp_instrs", unit: "count", better: "exact", module: "gpu", workloads: allWorkloads, desc: "warp instructions over distinct jobs"},
	{name: "gpu.issue_util", unit: "ratio", better: "exact", module: "gpu", workloads: allWorkloads, desc: "warp instructions over issue slots, distinct jobs"},
	{name: "mem.l1_hit_ratio", unit: "ratio", better: "exact", module: "mem", workloads: allWorkloads, desc: "L1 hits over accesses, distinct jobs"},
	{name: "mem.l2_hit_ratio", unit: "ratio", better: "exact", module: "mem", workloads: allWorkloads, desc: "L2 hits over accesses, distinct jobs"},
	{name: "mem.dram_tx", unit: "count", better: "exact", module: "mem", workloads: allWorkloads, desc: "DRAM transactions, distinct jobs"},
	{name: "mem.dram_util", unit: "ratio", better: "exact", module: "mem", workloads: allWorkloads, desc: "cycle-weighted DRAM utilization, distinct jobs"},
	{name: "mem.shadow_tx", unit: "count", better: "exact", module: "mem", workloads: allWorkloads, desc: "RDU shadow transactions, distinct jobs"},
	{name: "noc.flits", unit: "count", better: "exact", module: "noc", workloads: allWorkloads, desc: "NoC flits, distinct jobs"},
	{name: "core.warpmem_ms", unit: "ms", better: "lower", module: "core", workloads: allWorkloads, desc: "detector WarpMem time, mean per traced job"},
	{name: "core.barrier_ms", unit: "ms", better: "lower", module: "core", workloads: allWorkloads, desc: "detector Barrier time, mean per traced job"},
	{name: "core.other_ms", unit: "ms", better: "lower", module: "core", workloads: allWorkloads, desc: "detector KernelStart/KernelEnd/BlockStart, construction and report extraction, mean per traced job"},
	{name: "core.events", unit: "count", better: "exact", module: "core", workloads: allWorkloads, desc: "warp memory events the RDUs saw, distinct jobs"},
	{name: "core.ns_per_event", unit: "ns", better: "lower", module: "core", workloads: allWorkloads, desc: "WarpMem time per event"},
	{name: "core.shared_checks", unit: "count", better: "exact", module: "core", workloads: allWorkloads, desc: "lane-level shared RDU checks, distinct jobs"},
	{name: "core.global_checks", unit: "count", better: "exact", module: "core", workloads: allWorkloads, desc: "lane-level global RDU checks, distinct jobs"},
	{name: "core.filtered_checks", unit: "count", better: "exact", module: "core", workloads: allWorkloads, desc: "checks skipped by the static filter, distinct jobs"},
	{name: "core.filter_ratio", unit: "ratio", better: "exact", module: "core", workloads: allWorkloads, desc: "filtered over filtered plus performed checks"},
	{name: "core.reports", unit: "count", better: "exact", module: "core", workloads: allWorkloads, desc: "dynamic race reports before dedup, distinct jobs"},
	{name: "core.distinct_races", unit: "count", better: "exact", module: "core", workloads: allWorkloads, desc: "deduplicated races, distinct jobs"},
	{name: "staticrace.analyze_ms", unit: "ms", better: "lower", module: "staticrace", workloads: []string{"filter-check", "daemon-mix"}, desc: "staticrace.NewFilter (daemon-mix: Analyze and BuildReport of cache-missing specs), mean per traced job"},
	{name: "staticrace.alloc_mb", unit: "MB", better: "lower", module: "staticrace", workloads: []string{"filter-check"}, desc: "heap allocated by staticrace.NewFilter, mean per traced job"},
	{name: "kernels.build_ms", unit: "ms", better: "lower", module: "kernels", workloads: allWorkloads, desc: "kernels.Get and Benchmark.Build, mean per traced job"},
	{name: "kernels.alloc_mb", unit: "MB", better: "lower", module: "kernels", workloads: simWorkloads, desc: "heap allocated by Benchmark.Build, mean per traced job"},
	{name: "journal.bytes_per_job", unit: "bytes", better: "exact", module: "journal", workloads: []string{"record-replay"}, desc: "journal file size, mean per traced job"},
	{name: "journal.write_ms", unit: "ms", better: "lower", module: "journal", workloads: []string{"record-replay"}, desc: "journal file create, writes and closing fsync, mean per traced job"},
	{name: "journal.encode_self_ms", unit: "ms", better: "lower", module: "journal", workloads: []string{"record-replay"}, desc: "journal.Recorder time minus its inner detector and writes"},
	{name: "journal.read_ms", unit: "ms", better: "lower", module: "journal", workloads: []string{"record-replay"}, desc: "journal file reads during replay"},
	{name: "journal.decode_self_ms", unit: "ms", better: "lower", module: "journal", workloads: []string{"record-replay"}, desc: "journal.Replay time minus reads and detector calls"},
	{name: "journal.replay_core_ms", unit: "ms", better: "lower", module: "core", workloads: []string{"record-replay"}, desc: "detector time inside journal.Replay, mean per traced job"},
	{name: "service.submit_ms", unit: "ms", better: "lower", module: "service", workloads: []string{"daemon-mix"}, desc: "POST until the 202 acknowledgement (validation, quota, spool fsync), mean"},
	{name: "service.queue_wait_ms_p50", unit: "ms", better: "lower", module: "service", workloads: []string{"daemon-mix"}, desc: "StartedAt minus EnqueuedAt, median"},
	{name: "service.queue_wait_ms_p90", unit: "ms", better: "lower", module: "service", workloads: []string{"daemon-mix"}, desc: "StartedAt minus EnqueuedAt, 90th percentile"},
	{name: "service.exec_ms_p50", unit: "ms", better: "lower", module: "service", workloads: []string{"daemon-mix"}, desc: "FinishedAt minus StartedAt, median"},
	{name: "service.cache_hit_ratio", unit: "ratio", better: "higher", module: "service", workloads: []string{"daemon-mix"}, desc: "analyze jobs served from the report cache over analyze jobs"},
	{name: "service.rejected", unit: "count", better: "lower", module: "service", workloads: []string{"daemon-mix"}, desc: "submissions refused (queue full, quota, draining)"},
	{name: "runtime.gc_cpu_frac", unit: "fraction", better: "lower", module: "runtime", workloads: allWorkloads, desc: "GC CPU over total CPU in the measured window"},
	{name: "runtime.num_gc_per_job", unit: "count", better: "lower", module: "runtime", workloads: allWorkloads, desc: "GC cycles per job in the measured window"},
	{name: "replay_events_per_s", unit: "events/s", better: "higher", module: "journal", workloads: []string{"record-replay"}, desc: "as the end-to-end metric, from the untimed runs of the traced run"},
	{name: "detect_overhead", unit: "ratio", better: "exact", module: "core", workloads: []string{"fig7-sweep"}, desc: "as the end-to-end metric"},
	{name: "trace_overhead", unit: "ratio", better: "lower", module: "perfbench", workloads: allWorkloads, desc: "traced wall time over untimed wall time of the same jobs"},
	{name: "unclaimed_frac", unit: "fraction", better: "lower", module: "perfbench", workloads: allWorkloads, desc: "share of traced job time no layer claims"},
}

func gatedMetrics() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.gated {
			out = append(out, m)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
