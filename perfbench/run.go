package main

import (
	"context"
	"math/rand"
	"runtime/metrics"
	"time"
)

// minJobs is the fewest jobs a run measures: with at least 100 jobs,
// at least 10 samples lie beyond the reported p90.
const minJobs = 100

// runtimeSnap reads the Go runtime's allocation, GC and CPU counters.
type runtimeSnap struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeSnap {
	metrics.Read(runtimeSamples)
	return runtimeSnap{
		allocBytes: runtimeSamples[0].Value.Uint64(),
		gcCycles:   runtimeSamples[1].Value.Uint64(),
		gcCPU:      runtimeSamples[2].Value.Float64(),
		totalCPU:   runtimeSamples[3].Value.Float64(),
	}
}

// window is one measured interval of a run.
type window struct {
	before, after  runtimeSnap
	jobs           []*jobResult // every job that completed correctly or not
	traced         []*jobResult // traced reruns, in trace mode
	samples        []*layerSample
	tracedUntimed  time.Duration // untimed wall of the jobs that were traced
	distinct       map[string]*jobResult
	distinctTraced map[string]*layerSample
	passWalls      []time.Duration // wall time of each pass
}

// runSim measures a simulated workload: passes over its jobs in a
// seeded order, one job in flight, until the run has lasted seconds
// and holds at least minJobs jobs; only whole passes are measured, so
// per-job means do not depend on where the clock ran out. In trace
// mode every job also runs through the traced pipeline right after its
// untimed run.
func runSim(ctx context.Context, w *workload, rng *rand.Rand, seconds time.Duration, trace bool, dir string, chk *checker) *window {
	keys := w.pass()
	win := &window{distinct: map[string]*jobResult{}, distinctTraced: map[string]*layerSample{}}
	win.before = readRuntime()
	start := time.Now()
	for time.Since(start) < seconds || len(win.jobs) < minJobs {
		passStart := time.Now()
		order := append([]jobKey(nil), keys...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, k := range order {
			r, err := execJob(ctx, k, dir, trace)
			ok := chk.sim(k, r, err)
			if r == nil {
				r = &jobResult{Key: k}
			}
			win.jobs = append(win.jobs, r)
			if ok {
				if _, seen := win.distinct[k.String()]; !seen {
					win.distinct[k.String()] = r
				}
			}
			if !trace || !ok {
				continue
			}
			tr, ls, err := tracedJob(ctx, k, dir, 0)
			if chk.traced(k, r, tr, err) {
				win.traced = append(win.traced, tr)
				win.samples = append(win.samples, ls)
				win.tracedUntimed += r.Wall
				if _, seen := win.distinctTraced[k.String()]; !seen {
					win.distinctTraced[k.String()] = ls
				}
			}
		}
		win.passWalls = append(win.passWalls, time.Since(passStart))
	}
	win.after = readRuntime()
	return win
}
