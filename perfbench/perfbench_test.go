package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"haccrg/internal/kernels"
)

// TestTracedMatchesUntimed checks that the timing wrappers change
// nothing the program computes: for every benchmark, in every mode the
// workloads use, the traced pipeline gives the same findings digest,
// cycles, LaunchStats, detector counters and journal bytes as
// harness.ExecContext.
func TestTracedMatchesUntimed(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dir := t.TempDir()
	chk := newChecker(g)
	for _, b := range kernels.All() {
		for _, k := range []jobKey{
			{Bench: b.Name, Mode: modeOff, Scale: 2},
			{Bench: b.Name, Mode: modeSG, Scale: 2},
			{Bench: b.Name, Mode: modeSGFilter, Scale: 1},
			{Bench: b.Name, Mode: modeSG, Scale: 1, Record: true},
		} {
			untimed, err := execJob(ctx, k, dir, true)
			if !chk.sim(k, untimed, err) {
				t.Fatalf("%s untimed: %v", k, chk.messages)
			}
			traced, _, err := tracedJob(ctx, k, dir, 0)
			if !chk.traced(k, untimed, traced, err) {
				t.Fatalf("%s: %v", k, chk.messages)
			}
			if untimed.Stats.Health == nil && k.Mode != modeOff {
				t.Errorf("%s: LaunchStats.Health missing through the wrappers", k)
			}
		}
	}
}

// TestPlantedDetectorDelayIsCaught plants a per-event busy-wait in the
// detector wrapper, making each event take 40 times the detector's own
// time, and runs one pass of fig7-sweep through the traced pipeline
// with and without it: job_ms_p90 must worsen by more than its bound,
// while sim_cycles and every finding stay exact.
func TestPlantedDetectorDelayIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two fig7-sweep passes")
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloadByName("fig7-sweep")
	if err != nil {
		t.Fatal(err)
	}
	pass := func(slowdown int) map[string]float64 {
		chk := newChecker(g)
		win := &window{distinct: map[string]*jobResult{}}
		start := time.Now()
		for _, k := range w.pass() {
			r, _, err := tracedJob(context.Background(), k, t.TempDir(), slowdown)
			if !chk.sim(k, r, err) {
				t.Fatalf("slowdown %d: %v", slowdown, chk.messages)
			}
			win.jobs = append(win.jobs, r)
			win.distinct[k.String()] = r
		}
		win.passWalls = []time.Duration{time.Since(start)}
		m := map[string]float64{}
		simEndToEnd(w, win, m)
		return m
	}
	base, planted := pass(0), pass(40)
	bound := metricByName(t, "job_ms_p90").bound
	t.Logf("job_ms_p90 %.1f ms planted, %.1f ms base", planted["job_ms_p90"], base["job_ms_p90"])
	if planted["job_ms_p90"] <= base["job_ms_p90"]*(1+bound) {
		t.Errorf("job_ms_p90 %.1f ms with the planted delay, %.1f ms without: not past the %.0f%% bound",
			planted["job_ms_p90"], base["job_ms_p90"], 100*bound)
	}
	if planted["sim_cycles"] != base["sim_cycles"] {
		t.Errorf("sim_cycles %v with the planted delay, %v without", planted["sim_cycles"], base["sim_cycles"])
	}
}

func metricByName(t *testing.T, name string) metricDef {
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if m.name == name {
			return m
		}
	}
	t.Fatalf("no metric %q", name)
	return metricDef{}
}

// benchmarkFile is the shape of the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// jsonBetter maps a registry direction to BENCHMARK.json's, which
// knows only lower and higher: a simulated metric that must stay
// exact is listed as lower.
func jsonBetter(b string) string {
	if b == "exact" {
		return "lower"
	}
	return b
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json in step with
// the metric and workload registries the benchmark prints from.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the registry", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, registry %s: %s", i, f.Workloads[i], w.name, w.why)
		}
	}
	gated := gatedMetrics()
	if len(f.EndToEnd) != len(gated) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d gated in the registry", len(f.EndToEnd), len(gated))
	}
	for i, m := range gated {
		e := f.EndToEnd[i]
		if e.Name != m.name || e.Unit != m.unit || e.Better != jsonBetter(m.better) || e.Bound != m.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, registry %+v", i, e, m)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the registry", len(f.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		e := f.PerLayer[i]
		if e.Name != m.name || e.Unit != m.unit || e.Better != jsonBetter(m.better) {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, registry %+v", i, e, m)
		}
	}
}

// TestDaemonMixCycles checks the make-up the daemon-mix docs promise:
// every cycle holds each benchmark ten times, each program once as a
// fresh analyze spec, and 51 repeats of specs first submitted at least
// repeatGap back; the same seed gives the same sequence.
func TestDaemonMixCycles(t *testing.T) {
	mix := daemonMix(rand.New(rand.NewSource(7)), &daemonWarmup)
	again := daemonMix(rand.New(rand.NewSource(7)), &daemonWarmup)
	if !reflect.DeepEqual(mix, again) {
		t.Fatal("daemonMix is not a function of its seed")
	}
	cycle := len(mix) / mixCycles
	seenAt := map[analyzeKey]int{daemonWarmup: -repeatGap}
	for c := 0; c < 3; c++ {
		bench, fresh, repeat := map[string]int{}, 0, 0
		for i := c * cycle; i < (c+1)*cycle; i++ {
			s := mix[i]
			switch {
			case s.bench != nil:
				bench[s.bench.Bench]++
			case s.repeat:
				repeat++
				at, ok := seenAt[*s.analyze]
				if !ok || at > i-repeatGap {
					t.Fatalf("position %d repeats %s, first submitted at %d", i, s.analyze, at)
				}
			default:
				fresh++
				if _, ok := seenAt[*s.analyze]; ok {
					t.Fatalf("position %d: fresh spec %s was submitted before", i, s.analyze)
				}
			}
			if s.analyze == nil {
				continue
			}
			if _, ok := seenAt[*s.analyze]; !ok {
				seenAt[*s.analyze] = i
			}
		}
		for name, n := range bench {
			if n != benchRepeats {
				t.Errorf("cycle %d: %s %d times", c, name, n)
			}
		}
		if len(bench) != len(kernels.All()) || fresh != 51 || repeat != 51 {
			t.Errorf("cycle %d: %d benchmarks, %d fresh, %d repeats", c, len(bench), fresh, repeat)
		}
	}
}

// TestDaemonRoundTrips drives the first jobs of a mix through an
// in-process daemon from both clients and checks every result against
// the recorded in-process outputs. Run it with -race: the clients share
// the mix cursor and the result list.
func TestDaemonRoundTrips(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mix := daemonMix(rand.New(rand.NewSource(3)), &daemonWarmup)[:2*mixCycles]
	jobs, _ := runDaemonMix(context.Background(), d, mix, 0)
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}
	chk := newChecker(g)
	for _, j := range jobs {
		chk.daemon(j)
	}
	if len(jobs) != len(mix) || chk.failed > 0 {
		t.Fatalf("%d of %d jobs ran, %d failed: %v", len(jobs), len(mix), chk.failed, chk.messages)
	}
}

// TestRSSSampler checks that the sampler stops, hands its samples over
// safely (run with -race) and reports a plausible resident set.
func TestRSSSampler(t *testing.T) {
	r := startRSS()
	time.Sleep(10 * rssEvery)
	mb, err := r.peakMB()
	if err != nil {
		t.Fatal(err)
	}
	if mb <= 1 || len(r.mb) < 2 {
		t.Fatalf("peak %.1f MB from %d samples", mb, len(r.mb))
	}
}
