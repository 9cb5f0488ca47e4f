// Command perfbench is the repository's benchmark. It runs one
// workload for a fixed time, checks every job's output, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of
// a traced run) as a table followed by one JSON line:
//
//	go -C perfbench build -o ../.bench_build/perfbench . &&
//	.bench_build/perfbench -workload fig7-sweep -seed 1 -seconds 25 -trace 0
//
// perfbench/run.sh does the same with the build caches kept inside
// the checkout. Untimed runs call harness.ExecContext, the job core
// every CLI, sweep and the daemon run. The traced run rebuilds the
// same pipeline from each layer's public functions and times each
// call; tracing inside the program is not part of this benchmark.
// Every run uses the serial RDU engines.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many cold processes setup_s takes its median over.
const setupRuns = 9

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "workload to run: fig7-sweep, filter-check, record-replay or daemon-mix")
		seed         = flag.Int64("seed", 1, "seed for job order and the daemon mix")
		seconds      = flag.Int("seconds", 25, "length of the measured window")
		trace        = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		setupChild   = flag.Bool("setup-child", false, "internal: set up the workload, print ready, exit")
		goldenOut    = flag.String("write-golden", "", "record every job's output at this commit to this file and exit")
	)
	flag.Parse()
	if *goldenOut != "" {
		if err := writeGolden(*goldenOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*workloadName)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload <name> -seed <n> -seconds <n> -trace <0|1>")
		return 2
	}
	if *setupChild {
		return childSetup(w, *seed)
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := measure(w, g, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print(os.Stdout)
	if !res.correct {
		return 1
	}
	return 0
}

// workDir returns a fresh per-process directory under the checkout's
// build directory, where journals and the daemon's spool live.
func workDir() (string, error) {
	dir, err := filepath.Abs(filepath.Join(".bench_build", "work", strconv.Itoa(os.Getpid())))
	if err != nil {
		return "", err
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// setupState is what a workload needs before its first timed job.
type setupState struct {
	dir    string
	rng    *rand.Rand
	daemon *daemon
	mix    []daemonSpec
}

func (s *setupState) close() error {
	var err error
	if s.daemon != nil {
		err = s.daemon.stop()
	}
	removeAll(s.dir)
	return err
}

// setup prepares a workload: it fills the kernel-assembly cache with
// every program the workload runs, starts the daemon for daemon-mix,
// and runs one discarded warm-up job of the workload's kind.
func setup(ctx context.Context, w *workload, seed int64) (*setupState, error) {
	dir, err := workDir()
	if err != nil {
		return nil, err
	}
	st := &setupState{dir: dir, rng: rand.New(rand.NewSource(seed))}
	if err := st.prepare(ctx, w); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// prepare is setup's body; st.dir exists.
func (st *setupState) prepare(ctx context.Context, w *workload) error {
	if w.pass == nil {
		var keys []jobKey
		for _, a := range analyzePool() {
			keys = append(keys, jobKey{Bench: a.Bench, Variant: a.Variant, Scale: 1})
		}
		if err := assemble(keys); err != nil {
			return err
		}
		// Warm-up: one bench job and one analyze job outside the pool,
		// which the mix's first repeats then find in the cache.
		st.mix = daemonMix(st.rng, &daemonWarmup)
		var err error
		if st.daemon, err = startDaemon(filepath.Join(st.dir, "daemon")); err != nil {
			return err
		}
		for _, spec := range []daemonSpec{
			{bench: &jobKey{Bench: "hash", Mode: modeSG, Scale: 1}},
			{analyze: &daemonWarmup},
		} {
			if j := st.daemon.do(ctx, spec); j.err != nil || j.status.State != "done" {
				return fmt.Errorf("daemon warm-up %s failed: %v", spec.name(), j.err)
			}
		}
		return nil
	}
	keys := w.pass()
	if err := assemble(keys); err != nil {
		return err
	}
	for _, k := range keys {
		if k.Bench == "hash" && k.Variant == "" {
			if _, err := execJob(ctx, k, st.dir, false); err != nil {
				return fmt.Errorf("warm-up %s: %w", k, err)
			}
			break
		}
	}
	return nil
}

// childSetup is the body of a setup_s probe process.
func childSetup(w *workload, seed int64) int {
	st, err := setup(context.Background(), w, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println("ready")
	if err := st.close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// measureSetup runs setupRuns cold processes of this binary in setup
// mode, one after another, and returns each one's time from process
// start until it reported ready.
func measureSetup(w *workload, seed int64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe, "-setup-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(start)
		werr := cmd.Wait()
		if rerr != nil || strings.TrimSpace(line) != "ready" || werr != nil {
			return nil, fmt.Errorf("setup probe failed: %q %v %v", line, rerr, werr)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// result is one run's outcome.
type result struct {
	workload  *workload
	seed      int64
	trace     bool
	correct   bool
	jobs      int // jobs in the measured window
	attempted int // jobs, traced reruns and host reference checks
	failed    int
	messages  []string
	metrics   map[string]float64
	setup     []float64
}

func measure(w *workload, g *goldenSet, seed int64, seconds time.Duration, trace bool) (*result, error) {
	ctx := context.Background()
	setupTimes, err := measureSetup(w, seed)
	if err != nil {
		return nil, err
	}
	st, err := setup(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	chk := newChecker(g)
	m := map[string]float64{"setup_s": median(setupTimes)}
	var jobs int
	if w.pass != nil {
		rss := startRSS()
		win := runSim(ctx, w, st.rng, seconds, trace, st.dir, chk)
		if m["peak_rss_mb"], err = rss.peakMB(); err != nil {
			st.close()
			return nil, err
		}
		jobs = len(win.jobs)
		chk.verify(ctx, w.pass())
		simEndToEnd(w, win, m)
		if trace {
			layerMetrics(win.samples, win.traced, win.distinct, win.distinctTraced, m)
			m["trace_overhead"] = ratio(float64(sumWall(win.samples)), float64(win.tracedUntimed))
		}
	} else if jobs, err = measureDaemon(ctx, st, seconds, trace, chk, m); err != nil {
		st.close()
		return nil, err
	}
	if err := st.close(); err != nil {
		return nil, err
	}
	m["failed_frac"] = ratio(float64(chk.failed), float64(chk.attempted))
	return &result{
		workload: w, seed: seed, trace: trace, jobs: jobs,
		correct:   chk.failed == 0 && chk.attempted > 0,
		attempted: chk.attempted, failed: chk.failed, messages: chk.messages,
		metrics: m, setup: setupTimes,
	}, nil
}

func sumWall(samples []*layerSample) time.Duration {
	var d time.Duration
	for _, s := range samples {
		d += s.wall
	}
	return d
}

// stamp identifies the machine shape and the code a result came from.
// Compare wall-clock metrics only between results with equal
// gomaxprocs, num_cpu and go_version; simulated metrics compare
// exactly on any machine.
func stamp(seed int64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"commit":     commit,
		"seed":       seed,
		"rdu":        "serial (DetectParallel and DetectParallelShared off)",
	}
}

func (r *result) print(f *os.File) {
	bw := bufio.NewWriter(f)
	defer bw.Flush()
	kind := "end-to-end"
	if r.trace {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(bw, "# perfbench %s, workload %s: %s\n", kind, r.workload.name, r.workload.why)
	if !r.trace {
		for _, m := range endToEnd {
			fmt.Fprintf(bw, "%-24s %16.6g %-14s %-10s %s\n", m.name, r.metrics[m.name], m.unit, m.module, r.note(m))
		}
	} else {
		for _, m := range perLayer {
			fmt.Fprintf(bw, "%-28s %16.6g %-10s %-10s %s\n", m.name, r.metrics[m.name], m.unit, m.module, r.note(m))
		}
	}
	fmt.Fprintf(bw, "# %d jobs measured; %d checks attempted, %d failed; setup_s samples %v\n", r.jobs, r.attempted, r.failed, r.setup)
	for _, msg := range r.messages {
		fmt.Fprintf(bw, "# FAIL %s\n", msg)
	}
	st, _ := json.Marshal(stamp(r.seed))
	fmt.Fprintf(bw, "# stamp %s\n", st)

	out := map[string]any{}
	defs := gatedMetrics()
	if r.trace {
		defs = perLayer
	}
	for _, m := range defs {
		out[m.name] = map[string]any{"value": r.metrics[m.name], "unit": m.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	fmt.Fprintf(bw, "%s\n", line)
}

// note annotates a table row: metrics that do not apply to the
// workload, and the paper's figure beside detect_overhead.
func (r *result) note(m metricDef) string {
	for _, w := range m.workloads {
		if w == r.workload.name {
			if m.name == "detect_overhead" {
				return "(paper: 1.27 shared+global geomean, Fig. 7; this model is not validated against hardware)"
			}
			if m.name == "job_ms_p90" {
				return fmt.Sprintf("(%d jobs)", r.jobs)
			}
			return ""
		}
	}
	return "(not measured on this workload)"
}
