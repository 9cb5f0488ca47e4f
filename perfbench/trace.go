package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime/metrics"
	"time"

	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/harness"
	"haccrg/internal/isa"
	"haccrg/internal/journal"
	"haccrg/internal/kernels"
	"haccrg/internal/staticrace"
)

// timedDetector forwards every gpu.Detector call to inner and adds the
// time spent inside it to per-call-class totals. It forwards Inner()
// so the device still finds FenceObserver/AsyncDetector implementations
// down the chain and core.RacesOf still reaches the engine, and
// Health() so LaunchStats.Health is filled exactly as without it.
type timedDetector struct {
	inner gpu.Detector

	warpMem, barrier, other time.Duration
	events, barriers        int64

	// slowdown, above 1, busy-waits after each WarpMem event until the
	// event has taken slowdown times as long as the detector's own work:
	// a planted per-event delay for the benchmark's self-test, which
	// scales with the host's speed. Zero in every benchmark run.
	slowdown int
}

func (t *timedDetector) total() time.Duration { return t.warpMem + t.barrier + t.other }

func (t *timedDetector) Inner() gpu.Detector { return t.inner }

func (t *timedDetector) Health() *gpu.DetectorHealth {
	if hr, ok := t.inner.(gpu.HealthReporter); ok {
		return hr.Health()
	}
	return nil
}

func (t *timedDetector) Name() string { return t.inner.Name() }

func (t *timedDetector) KernelStart(env gpu.Env, kernel string) {
	s := time.Now()
	t.inner.KernelStart(env, kernel)
	t.other += time.Since(s)
}

func (t *timedDetector) KernelEnd() {
	s := time.Now()
	t.inner.KernelEnd()
	t.other += time.Since(s)
}

func (t *timedDetector) WarpMem(ev *gpu.WarpMemEvent) int64 {
	s := time.Now()
	stall := t.inner.WarpMem(ev)
	if t.slowdown > 1 {
		until := time.Duration(t.slowdown) * time.Since(s)
		for time.Since(s) < until {
		}
	}
	t.warpMem += time.Since(s)
	t.events++
	return stall
}

func (t *timedDetector) Barrier(sm, block, sharedBase, sharedSize int, cycle int64) int64 {
	s := time.Now()
	stall := t.inner.Barrier(sm, block, sharedBase, sharedSize, cycle)
	t.barrier += time.Since(s)
	t.barriers++
	return stall
}

func (t *timedDetector) BlockStart(sm, sharedBase, sharedSize int) {
	s := time.Now()
	t.inner.BlockStart(sm, sharedBase, sharedSize)
	t.other += time.Since(s)
}

// timedWriter times the journal's writes to its file.
type timedWriter struct {
	w     io.Writer
	spent time.Duration
}

func (t *timedWriter) Write(p []byte) (int, error) {
	s := time.Now()
	n, err := t.w.Write(p)
	t.spent += time.Since(s)
	return n, err
}

// timedReader times the replay's reads of its journal file.
type timedReader struct {
	r     io.Reader
	spent time.Duration
}

func (t *timedReader) Read(p []byte) (int, error) {
	s := time.Now()
	n, err := t.r.Read(p)
	t.spent += time.Since(s)
	return n, err
}

// replayTrace holds the timers of one traced replay.
type replayTrace struct {
	reader timedReader
	det    timedDetector
	total  time.Duration
}

// layerSample is one traced job's host time and allocation per layer.
type layerSample struct {
	wall time.Duration

	kernelsBuild time.Duration
	kernelsAlloc uint64
	newDevice    time.Duration
	coreNew      time.Duration
	coreReport   time.Duration // race extraction and the report after the run
	static       time.Duration
	staticAlloc  uint64
	run          time.Duration // Plan.RunContext, detector calls included
	runAlloc     uint64
	det          timedDetector // the RDU engine's calls
	recorder     time.Duration // journal.Recorder calls, inner detector included
	journalWrite time.Duration // file create, writes and the closing fsync
	runWrites    time.Duration // the part of journalWrite made inside RunContext
	replay       *replayTrace
}

// simSelf is Plan.RunContext time outside every detector-chain call.
func (s *layerSample) simSelf() time.Duration {
	if s.recorder > 0 {
		return s.run - s.recorder
	}
	return s.run - s.det.total()
}

// encodeSelf is the journal recorder's own time: its calls minus the
// detector it wraps minus the file writes made inside them.
func (s *layerSample) encodeSelf() time.Duration {
	if s.recorder == 0 {
		return 0
	}
	return s.recorder - s.det.total() - s.runWrites
}

// claimed is the job time some layer accounts for.
func (s *layerSample) claimed() time.Duration {
	c := s.kernelsBuild + s.newDevice + s.coreNew + s.coreReport + s.static + s.run + s.journalWrite - s.runWrites
	if s.replay != nil {
		c += s.replay.total
	}
	return c
}

var allocMetric = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs returns the cumulative bytes allocated on the heap. It
// reads runtime/metrics, which needs no stop-the-world pause.
func heapAllocs() uint64 {
	metrics.Read(allocMetric)
	return allocMetric[0].Value.Uint64()
}

// tracedJob rebuilds the pipeline harness.ExecContext runs from each
// layer's public functions and times every call: kernels.Get and
// Benchmark.Build, gpu.NewDevice, staticrace.NewFilter,
// kernels.Plan.RunContext, the detector through timedDetector, and for
// record jobs journal.NewRecorder over a timed file writer followed by
// journal.Replay over a timed reader. slowdown plants a per-event
// delay in the detector wrapper (self-test only).
func tracedJob(ctx context.Context, k jobKey, dir string, slowdown int) (*jobResult, *layerSample, error) {
	start := time.Now()
	ls := &layerSample{}
	rc := k.runConfig()

	t := time.Now()
	bm := kernels.Get(k.Bench)
	if bm == nil {
		return nil, nil, fmt.Errorf("unknown benchmark %q", k.Bench)
	}
	ls.kernelsBuild += time.Since(t)

	var (
		coreDet *core.Detector
		dev     gpu.Detector = gpu.NopDetector{}
	)
	if k.Mode != modeOff {
		t = time.Now()
		d, err := harness.DetectorFor(rc)
		if err != nil {
			return nil, nil, err
		}
		ls.coreNew = time.Since(t)
		coreDet = d.(*core.Detector)
		ls.det.inner = coreDet
		ls.det.slowdown = slowdown
		dev = &ls.det
	}

	var (
		fw    *journal.FileWriter
		tw    *timedWriter
		jrec  *journal.Recorder
		outer *timedDetector
		path  string
	)
	if k.Record {
		path = filepath.Join(dir, "job.journal")
		var err error
		t = time.Now()
		if fw, err = journal.CreateFile(nil, path); err != nil {
			return nil, nil, err
		}
		defer func() {
			if fw != nil { // an error return; success closes and clears fw
				fw.Close()
			}
		}()
		ls.journalWrite += time.Since(t)
		tw = &timedWriter{w: fw}
		if jrec, err = journal.NewRecorder(tw, dev); err != nil {
			return nil, nil, err
		}
		meta := &journal.Meta{Bench: k.Bench, Detector: string(rc.Detector), Scale: k.Scale, Inject: rc.Inject}
		if coreDet != nil {
			meta.SharedGranularity = coreDet.Options().SharedGranularity
			meta.GlobalGranularity = coreDet.Options().GlobalGranularity
		}
		if err := jrec.SetMeta(meta); err != nil {
			return nil, nil, err
		}
		outer = &timedDetector{inner: jrec}
		dev = outer
	}

	cfg := gpu.DefaultConfig()
	if k.Mode != modeOff {
		cfg.NoC.RDUMetaEnabled = true
	}
	t = time.Now()
	device, err := gpu.NewDevice(cfg, bm.GlobalBytes(k.Scale), dev)
	if err != nil {
		return nil, nil, err
	}
	ls.newDevice = time.Since(t)

	a := heapAllocs()
	t = time.Now()
	plan, err := bm.Build(device, k.params())
	if err != nil {
		return nil, nil, err
	}
	ls.kernelsBuild += time.Since(t)
	ls.kernelsAlloc = heapAllocs() - a

	if k.Mode == modeSGFilter {
		o := coreDet.Options()
		sconf := staticrace.Config{
			WarpSize:          cfg.WarpSize,
			SharedGranularity: o.SharedGranularity,
			GlobalGranularity: o.GlobalGranularity,
			WarpAware:         o.WarpAware,
		}
		a = heapAllocs()
		t = time.Now()
		f, err := staticrace.NewFilter(sconf, plan.Kernels...)
		if err != nil {
			return nil, nil, err
		}
		ls.static = time.Since(t)
		ls.staticAlloc = heapAllocs() - a
		coreDet.SetStaticFilter(f)
	}

	var writesBefore time.Duration
	if tw != nil {
		writesBefore = tw.spent
	}
	a = heapAllocs()
	t = time.Now()
	stats, err := plan.RunContext(ctx, device, gpu.LaunchLimits{})
	ls.run = time.Since(t)
	ls.runAlloc = heapAllocs() - a
	if err != nil {
		return nil, nil, err
	}
	if outer != nil {
		ls.recorder = outer.total()
		ls.runWrites = tw.spent - writesBefore
	}

	out := &jobResult{Key: k, Cycles: stats.Cycles, Stats: stats}
	if coreDet != nil {
		// The same extraction ExecContext makes after a run.
		t = time.Now()
		races := coreDet.SortedRaces()
		coreDet.SiteCount(isa.SpaceShared)
		coreDet.SiteCount(isa.SpaceGlobal)
		coreDet.RaceGroups()
		out.DetStats = coreDet.Stats()
		coreDet.Report()
		ls.coreReport = time.Since(t)
		out.Digest, out.Races = digestOf(raceStrings(races)), len(races)
	} else {
		out.Digest = digestOf(nil)
	}

	if k.Record {
		t = time.Now()
		cerr := fw.Close()
		fw = nil
		ls.journalWrite += tw.spent + time.Since(t)
		if cerr != nil {
			return nil, nil, fmt.Errorf("closing journal: %w", cerr)
		}
		if err := jrec.Err(); err != nil {
			return nil, nil, fmt.Errorf("journal recording failed: %w", err)
		}
		ls.replay = &replayTrace{}
		if err := replayFile(k, path, out, ls.replay, true); err != nil {
			return nil, nil, err
		}
		out.ReplayWall = ls.replay.total
	}
	out.Wall = time.Since(start)
	ls.wall = out.Wall
	return out, ls, nil
}
