package main

import (
	"fmt"

	"haccrg/internal/gpu"
	"haccrg/internal/kernels"
)

// workload is one set of inputs the benchmark runs. Simulated
// workloads repeat passes over a fixed list of distinct jobs in a
// seeded order; daemon-mix drives the HTTP service instead.
type workload struct {
	name string
	why  string
	// scale is the input scale of the workload's simulated jobs.
	scale int
	// pass lists one pass of distinct jobs (nil for daemon-mix).
	pass func() []jobKey
}

var workloads = []workload{
	{
		name:  "fig7-sweep",
		why:   "the ten benchmarks with detection off and shared+global at scale 2: simulation is nearly all host time, and only half the jobs run the RDUs",
		scale: 2,
		pass:  fig7Pass,
	},
	{
		name:  "filter-check",
		why:   "51 distinct programs (clean builds and 41 single-site injections) under the static filter at scale 1: static analysis dominates, no program repeats",
		scale: 1,
		pass:  filterPass,
	},
	{
		name:  "record-replay",
		why:   "each benchmark recorded to a journal file at scale 1 and replayed into a fresh detector: journal writes and reads, RDU without the simulator",
		scale: 1,
		pass:  recordPass,
	},
	{
		name:  "daemon-mix",
		why:   "in-process HTTP daemon, 2 closed-loop clients, seeded bench/analyze mix with repeated analyze specs: admission, queueing, spool fsync, analysis cache",
		scale: 1,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// programs lists a benchmark's clean build ("") and every single-site
// race-injection variant.
func programs(b *kernels.Benchmark) []string {
	out := []string{""}
	for _, s := range b.Sites {
		out = append(out, s.ID)
	}
	return out
}

func fig7Pass() []jobKey {
	var out []jobKey
	for _, b := range kernels.All() {
		out = append(out,
			jobKey{Bench: b.Name, Mode: modeOff, Scale: 2},
			jobKey{Bench: b.Name, Mode: modeSG, Scale: 2})
	}
	return out
}

func filterPass() []jobKey {
	var out []jobKey
	for _, b := range kernels.All() {
		for _, v := range programs(b) {
			out = append(out, jobKey{Bench: b.Name, Variant: v, Mode: modeSGFilter, Scale: 1})
		}
	}
	return out
}

func recordPass() []jobKey {
	var out []jobKey
	for _, b := range kernels.All() {
		out = append(out, jobKey{Bench: b.Name, Mode: modeSG, Scale: 1, Record: true})
	}
	return out
}

// daemonBenchKeys are the in-process equivalents of daemon-mix's bench
// jobs: one benchmark at scale 1 under shared+global.
func daemonBenchKeys() []jobKey {
	var out []jobKey
	for _, b := range kernels.All() {
		out = append(out, jobKey{Bench: b.Name, Mode: modeSG, Scale: 1})
	}
	return out
}

// assemble builds every distinct program of keys once, filling the
// program's kernel-assembly cache the way a first run would.
func assemble(keys []jobKey) error {
	done := map[string]bool{}
	for _, k := range keys {
		k.Mode, k.Record = "", false
		if done[k.String()] {
			continue
		}
		done[k.String()] = true
		bm := kernels.Get(k.Bench)
		if bm == nil {
			return fmt.Errorf("unknown benchmark %q", k.Bench)
		}
		dev, err := gpu.NewDevice(gpu.DefaultConfig(), bm.GlobalBytes(k.Scale), nil)
		if err != nil {
			return err
		}
		if _, err := bm.Build(dev, k.params()); err != nil {
			return fmt.Errorf("building %s: %w", k, err)
		}
	}
	return nil
}
