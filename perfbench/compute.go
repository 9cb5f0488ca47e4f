package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"haccrg/internal/gpu"
	"haccrg/internal/mem"
)

// simEndToEnd computes a simulated workload's end-to-end metrics from
// its untimed jobs.
func simEndToEnd(w *workload, win *window, out map[string]float64) {
	// Rates are medians over passes, so a burst of CPU use by another
	// tenant of the host that spans fewer than half the passes does not
	// move them.
	var jobRate, simRate, replayRate []float64
	perPass := len(w.pass())
	byKey := map[string][]float64{}
	for p, pw := range win.passWalls {
		var winstr int64
		var simWall, replayWall time.Duration
		var replayEvents int
		for _, r := range win.jobs[p*perPass : (p+1)*perPass] {
			byKey[r.Key.String()] = append(byKey[r.Key.String()], ms(r.Wall))
			if r.Stats == nil {
				continue
			}
			winstr += r.Stats.WarpInstrs
			simWall += r.Wall - r.ReplayWall
			replayWall += r.ReplayWall
			replayEvents += r.ReplayEvents
		}
		jobRate = append(jobRate, float64(perPass)/pw.Seconds())
		simRate = append(simRate, ratio(float64(winstr), simWall.Seconds()))
		replayRate = append(replayRate, ratio(float64(replayEvents), replayWall.Seconds()))
	}
	// A run holds whole passes, so every job key repeats equally often.
	// Each job counts with its key's median latency in the run: the
	// percentiles then describe the workload's mix of programs, not
	// which repeat of the slowest program a neighbour's burst of CPU
	// use happened to hit.
	var walls []float64
	for _, ws := range byKey {
		m := median(ws)
		for range ws {
			walls = append(walls, m)
		}
	}
	out["job_ms_p50"] = percentile(walls, 50)
	out["job_ms_p90"] = percentile(walls, 90)
	out["jobs_per_s"] = median(jobRate)
	out["sim_winstr_per_s"] = median(simRate)
	out["replay_events_per_s"] = median(replayRate)
	var cycles int64
	for _, r := range win.distinct {
		cycles += r.Cycles
	}
	out["sim_cycles"] = float64(cycles)
	out["detect_overhead"] = detectOverhead(win.distinct)
	out["alloc_mb_per_job"] = float64(win.after.allocBytes-win.before.allocBytes) / 1e6 / float64(len(win.jobs))
	runtimeLayer(win.before, win.after, len(win.jobs), out)
}

// detectOverhead is the geomean over benchmarks of shared+global over
// detection-off simulated cycles (0 when no benchmark ran both).
func detectOverhead(distinct map[string]*jobResult) float64 {
	off := map[string]int64{}
	for _, r := range distinct {
		if r.Key.Mode == modeOff {
			off[r.Key.Bench] = r.Cycles
		}
	}
	var logSum float64
	n := 0
	for _, r := range distinct {
		if r.Key.Mode == modeSG && off[r.Key.Bench] > 0 {
			logSum += math.Log(float64(r.Cycles) / float64(off[r.Key.Bench]))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

func runtimeLayer(before, after runtimeSnap, jobs int, out map[string]float64) {
	out["runtime.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	out["runtime.num_gc_per_job"] = ratio(float64(after.gcCycles-before.gcCycles), float64(jobs))
}

// layerMetrics turns traced samples into the per-layer metrics. Times
// and allocations are means per traced job; simulated counts are sums
// over distinct jobs (one of each), so they repeat exactly.
func layerMetrics(samples []*layerSample, traced []*jobResult, distinct map[string]*jobResult, distinctTraced map[string]*layerSample, out map[string]float64) {
	n := float64(len(samples))
	if n == 0 {
		return
	}
	var (
		simSelf, newDev, build, static, run, coreOther, warpMem, barrier time.Duration
		write, encode, read, decode, replayCore, wall, claimed           time.Duration
		runAlloc, buildAlloc, staticAlloc, journalBytes                  float64
		events                                                           int64
	)
	for _, s := range samples {
		simSelf += s.simSelf()
		newDev += s.newDevice
		build += s.kernelsBuild
		static += s.static
		run += s.run
		coreOther += s.det.other + s.coreNew + s.coreReport
		warpMem += s.det.warpMem
		barrier += s.det.barrier
		events += s.det.events
		write += s.journalWrite
		encode += s.encodeSelf()
		if s.replay != nil {
			read += s.replay.reader.spent
			replayCore += s.replay.det.total()
			decode += s.replay.total - s.replay.reader.spent - s.replay.det.total()
		}
		runAlloc += float64(s.runAlloc)
		buildAlloc += float64(s.kernelsAlloc)
		staticAlloc += float64(s.staticAlloc)
		wall += s.wall
		claimed += s.claimed()
	}
	var winstr int64
	for _, r := range traced {
		winstr += r.Stats.WarpInstrs
		journalBytes += float64(r.JournalBytes)
	}
	out["gpu.sim_self_ms"] = ms(simSelf) / n
	out["gpu.ns_per_winstr"] = ratio(float64(simSelf.Nanoseconds()), float64(winstr))
	out["gpu.alloc_mb"] = runAlloc / 1e6 / n
	out["gpu.newdevice_ms"] = ms(newDev) / n
	out["core.warpmem_ms"] = ms(warpMem) / n
	out["core.barrier_ms"] = ms(barrier) / n
	out["core.other_ms"] = ms(coreOther) / n
	out["core.ns_per_event"] = ratio(float64(warpMem.Nanoseconds()), float64(events))
	out["staticrace.analyze_ms"] = ms(static) / n
	out["staticrace.alloc_mb"] = staticAlloc / 1e6 / n
	out["kernels.build_ms"] = ms(build) / n
	out["kernels.alloc_mb"] = buildAlloc / 1e6 / n
	out["journal.bytes_per_job"] = journalBytes / n
	out["journal.write_ms"] = ms(write) / n
	out["journal.encode_self_ms"] = ms(encode) / n
	out["journal.read_ms"] = ms(read) / n
	out["journal.decode_self_ms"] = ms(decode) / n
	out["journal.replay_core_ms"] = ms(replayCore) / n
	out["unclaimed_frac"] = ratio(float64(wall-claimed), float64(wall))

	var devEvents int64
	for _, s := range distinctTraced {
		devEvents += s.det.events
	}
	out["core.events"] = float64(devEvents)
	simCounts(distinct, out)
}

// simCounts sums the simulated statistics of one run of each distinct
// job; they come from LaunchStats and the RDU's counters, so a change
// that only speeds the host leaves them identical.
func simCounts(distinct map[string]*jobResult, out map[string]float64) {
	var (
		st                       gpu.LaunchStats
		l1, l2                   mem.CacheStats
		dramWeighted             float64
		shared, global, filtered int64
		reports, races           int64
	)
	for _, r := range distinct {
		if r.Stats == nil {
			continue
		}
		s := r.Stats
		st.WarpInstrs += s.WarpInstrs
		st.IssueSlots += s.IssueSlots
		st.Cycles += s.Cycles
		st.DRAMTx += s.DRAMTx
		st.ShadowTx += s.ShadowTx
		st.NoCFlits += s.NoCFlits
		dramWeighted += s.DRAMUtil * float64(s.Cycles)
		addCache(&l1, s.L1)
		addCache(&l2, s.L2)
		shared += r.DetStats.SharedChecks
		global += r.DetStats.GlobalChecks
		filtered += r.DetStats.FilteredChecks
		reports += r.DetStats.Reports
		races += int64(r.Races)
	}
	out["gpu.warp_instrs"] = float64(st.WarpInstrs)
	out["gpu.issue_util"] = ratio(float64(st.WarpInstrs), float64(st.IssueSlots))
	out["mem.l1_hit_ratio"] = hitRatio(l1)
	out["mem.l2_hit_ratio"] = hitRatio(l2)
	out["mem.dram_tx"] = float64(st.DRAMTx)
	out["mem.dram_util"] = ratio(dramWeighted, float64(st.Cycles))
	out["mem.shadow_tx"] = float64(st.ShadowTx)
	out["noc.flits"] = float64(st.NoCFlits)
	out["core.shared_checks"] = float64(shared)
	out["core.global_checks"] = float64(global)
	out["core.filtered_checks"] = float64(filtered)
	out["core.filter_ratio"] = ratio(float64(filtered), float64(filtered+shared+global))
	out["core.reports"] = float64(reports)
	out["core.distinct_races"] = float64(races)
}

func addCache(dst *mem.CacheStats, s mem.CacheStats) {
	dst.ReadHits += s.ReadHits
	dst.ReadMisses += s.ReadMisses
	dst.WriteHits += s.WriteHits
	dst.WriteMisses += s.WriteMisses
}

func hitRatio(s mem.CacheStats) float64 {
	hits := s.ReadHits + s.WriteHits
	return ratio(float64(hits), float64(hits+s.ReadMisses+s.WriteMisses))
}

// rssSampler samples the process's resident set every rssEvery while
// a window is measured.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	start   time.Time
	at      []time.Duration
	mb      []float64
	readErr error
}

const rssEvery = 20 * time.Millisecond

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), start: time.Now()}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			mb, err := residentMB()
			if err != nil {
				r.readErr = err
				return
			}
			r.at, r.mb = append(r.at, time.Since(r.start)), append(r.mb, mb)
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// peakMB stops the sampler and returns the median over ten equal
// slices of the window of each slice's peak resident set: the peak a
// run keeps reaching, which one unlucky garbage-collection cycle does
// not move.
func (r *rssSampler) peakMB() (float64, error) {
	close(r.stop)
	<-r.done
	if r.readErr != nil {
		return 0, r.readErr
	}
	const slices = 10
	peaks := map[int]float64{}
	span := time.Since(r.start)/slices + 1
	for i, t := range r.at {
		s := int(t / span)
		peaks[s] = math.Max(peaks[s], r.mb[i])
	}
	var sampled []float64
	for _, p := range peaks {
		sampled = append(sampled, p)
	}
	return median(sampled), nil
}

// residentMB reads the process's resident set from procfs.
func residentMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, fmt.Errorf("parsing /proc/self/statm %q", raw)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("parsing /proc/self/statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}
