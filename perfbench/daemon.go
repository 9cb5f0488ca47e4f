package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"haccrg/internal/service"
)

// Shape of daemon-mix's traffic.
const (
	daemonClients = 2 // closed-loop HTTP clients, matching a 2-core host
	daemonWorkers = 2 // server job executors
	// repeatGap is how far back a repeat must reach: with two closed-loop
	// clients the job three positions earlier has always finished, so a
	// repeat of it can be served from the analysis cache.
	repeatGap = 4
	// repeatWindow is how many of the latest eligible analyze specs a
	// repeat draws from. At most 64 distinct specs then stay live, well
	// inside the daemon's default 128-entry LRU report cache, so every
	// repeat hits and the cache's memory stops growing after about
	// three cycles.
	repeatWindow = 64
	benchRepeats = 10 // bench jobs per benchmark per cycle
	// mixCycles is how many cycles are generated; a run completes far
	// fewer. Cycles 12 to 23 reuse the specs of cycles 0 to 11, long
	// evicted from the cache by then.
	mixCycles = 24
	pollEvery = 2 * time.Millisecond
	// daemonSlices is how many equal slices of the window latencies and
	// rates are taken over.
	daemonSlices = 10
)

// daemonSpec is one job of the mix.
type daemonSpec struct {
	bench   *jobKey     // bench job, or nil
	analyze *analyzeKey // analyze job, or nil
	repeat  bool        // analyze spec submitted before
}

func (d daemonSpec) jobSpec() *service.JobSpec {
	if d.bench != nil {
		return &service.JobSpec{Kind: service.JobBench, Benches: []string{d.bench.Bench}, Detector: "shared+global", Scale: d.bench.Scale}
	}
	a := d.analyze
	sp := &service.JobSpec{Kind: service.JobAnalyze, Benches: []string{a.Bench}, Scale: 1,
		SharedGranularity: a.SG, GlobalGranularity: a.GG}
	if a.Variant != "" {
		sp.Inject = []string{a.Variant}
	}
	return sp
}

// daemonMix generates the seeded job sequence as a series of cycles
// with identical make-up, each shuffled: every benchmark ten times as a
// bench job, every one of the 51 programs once as a fresh analyze spec
// (one granularity pair per cycle), and 51 analyze specs repeating one
// of the repeatWindow latest submitted at least repeatGap positions
// earlier (at the start, the warm-up spec). Half the jobs are bench jobs and half the analyze jobs
// repeat, and should hit the analysis cache; a run measures whole
// cycles, so its mix does not depend on the seed.
func daemonMix(rng *rand.Rand, warmup *analyzeKey) []daemonSpec {
	const (
		slotBench = iota
		slotFresh
		slotRepeat
	)
	benches := daemonBenchKeys()
	pool := analyzePool()
	perPair := len(pool) / len(analyzeGranularities)
	var slots []int
	for range benches {
		for i := 0; i < benchRepeats; i++ {
			slots = append(slots, slotBench)
		}
	}
	for i := 0; i < perPair; i++ {
		slots = append(slots, slotFresh, slotRepeat)
	}
	var (
		out      = make([]daemonSpec, 0, mixCycles*len(slots))
		analyzed = []*analyzeKey{warmup}
		at       = []int{-repeatGap} // positions of analyzed
		eligible int                 // analyzed[:eligible] lie at least repeatGap back
	)
	for c := 0; c < mixCycles; c++ {
		cycle := pool[(c%len(analyzeGranularities))*perPair:][:perPair]
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		nb, nf := 0, 0
		for _, slot := range slots {
			i := len(out)
			for eligible < len(at) && at[eligible] <= i-repeatGap {
				eligible++
			}
			var spec daemonSpec
			switch slot {
			case slotBench:
				spec = daemonSpec{bench: &benches[nb%len(benches)]}
				nb++
				out = append(out, spec)
				continue
			case slotFresh:
				spec = daemonSpec{analyze: &cycle[nf]}
				nf++
			default:
				lo := max(0, eligible-repeatWindow)
				spec = daemonSpec{analyze: analyzed[lo+rng.Intn(eligible-lo)], repeat: true}
			}
			out = append(out, spec)
			analyzed, at = append(analyzed, spec.analyze), append(at, i)
		}
	}
	return out
}

// daemon is an in-process service.Server behind a loopback listener.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	client *service.Client
}

// startDaemon starts a server over dataDir with quotas no client of
// daemon-mix can exceed, so a correct server refuses nothing.
func startDaemon(dataDir string) (*daemon, error) {
	srv, err := service.New(service.Config{
		DataDir:    dataDir,
		QueueDepth: 64,
		Workers:    daemonWorkers,
		Tenant:     service.TenantConfig{MaxConcurrent: 4 * daemonClients},
		Log:        log.New(io.Discard, "", 0),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		return nil, err
	}
	srv.Start()
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.client = &service.Client{
		BaseURL:    "http://" + ln.Addr().String(),
		Tenant:     "perfbench",
		HTTPClient: &http.Client{Timeout: 60 * time.Second},
	}
	return d, nil
}

// stop drains the server, closes the listener and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep := d.srv.Drain(ctx)
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if err == nil && (rep.Interrupted > 0 || rep.Requeued > 0) {
		err = fmt.Errorf("drain left %d interrupted and %d queued jobs", rep.Interrupted, rep.Requeued)
	}
	return err
}

// daemonJob is one completed HTTP round trip.
type daemonJob struct {
	spec   daemonSpec
	submit time.Duration // POST until the 202 acknowledgement
	total  time.Duration // POST until the client saw a terminal state
	end    time.Duration // when the client saw it, from the window's start
	status *service.JobStatus
	err    error
}

// do submits spec and polls its status until it is terminal.
func (d *daemon) do(ctx context.Context, spec daemonSpec) daemonJob {
	j := daemonJob{spec: spec}
	start := time.Now()
	id, err := d.client.Submit(ctx, spec.jobSpec())
	j.submit = time.Since(start)
	if err != nil {
		j.err = err
		return j
	}
	for {
		st, err := d.client.Status(ctx, id)
		if err != nil {
			j.err = err
			return j
		}
		switch st.State {
		case service.StateDone, service.StateFailed, service.StateInterrupted:
			j.total = time.Since(start)
			j.status = st
			return j
		}
		time.Sleep(pollEvery)
	}
}

// runDaemonMix drives the closed loop: daemonClients goroutines each
// take the next spec of the mix, run it to completion and take the
// next. Once the run has lasted seconds and completed minJobs jobs, the
// clients finish the current cycle of the mix and stop.
func runDaemonMix(ctx context.Context, d *daemon, mix []daemonSpec, seconds time.Duration) ([]daemonJob, time.Duration) {
	cycle := int64(len(mix) / mixCycles)
	var (
		next   atomic.Int64
		done   atomic.Int64
		stopAt atomic.Int64
		mu     sync.Mutex
		jobs   []daemonJob
		wg     sync.WaitGroup
	)
	stopAt.Store(int64(len(mix)))
	start := time.Now()
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if time.Since(start) >= seconds && done.Load() >= minJobs {
					end := (i + cycle - 1) / cycle * cycle
					for cur := stopAt.Load(); end < cur && !stopAt.CompareAndSwap(cur, end); cur = stopAt.Load() {
					}
				}
				if i >= stopAt.Load() {
					return
				}
				j := d.do(ctx, mix[i])
				j.end = time.Since(start)
				done.Add(1)
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs, time.Since(start)
}

// checkDaemonJob compares a daemon result with the in-process result
// for the same spec recorded in golden.json.
func (c *checker) daemon(j daemonJob) bool {
	c.attempted++
	name := j.spec.name()
	if j.err != nil {
		c.fail("%s: %v", name, j.err)
		return false
	}
	st := j.status
	if st.State != service.StateDone {
		c.fail("%s: state %s: %s", name, st.State, st.Error)
		return false
	}
	if k := j.spec.bench; k != nil {
		if len(st.Runs) != 1 {
			c.fail("%s: %d runs in result", name, len(st.Runs))
			return false
		}
		r := &jobResult{Key: *k, Digest: digestOf(st.Runs[0].Races), Races: len(st.Runs[0].Races), Cycles: st.Runs[0].Cycles}
		if msg := c.simMismatch(*k, r); msg != "" {
			c.fail("%s: %s", name, msg)
			return false
		}
		return true
	}
	want, ok := c.golden.Analyze[j.spec.analyze.String()]
	if st.Analyze == nil || !ok {
		c.fail("%s: no analysis result to compare", name)
		return false
	}
	sha, err := reportSHA(st.Analyze.Report)
	if err != nil || st.Analyze.Findings != want.Findings || st.Analyze.Witnesses != want.Witnesses || sha != want.ReportSHA {
		c.fail("%s: analysis differs from the in-process result", name)
		return false
	}
	return true
}

func (d daemonSpec) name() string {
	if d.bench != nil {
		return "daemon bench " + d.bench.String()
	}
	return "daemon " + d.analyze.String()
}

// removeAll deletes a work directory, reporting failures on stderr.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// measureDaemon runs daemon-mix's timed window and computes its
// metrics. In trace mode it then replicates each bench spec in
// process, untimed and traced, and up to ten cache-missing analyze
// specs, for the layers the daemon hides behind HTTP.
func measureDaemon(ctx context.Context, st *setupState, seconds time.Duration, trace bool, chk *checker, m map[string]float64) (int, error) {
	before := readRuntime()
	rss := startRSS()
	jobs, wall := runDaemonMix(ctx, st.daemon, st.mix, seconds)
	peak, err := rss.peakMB()
	if err != nil {
		return 0, err
	}
	m["peak_rss_mb"] = peak
	after := readRuntime()

	// Latency percentiles and rates are medians over daemonSlices equal
	// slices of the window, so a burst of CPU use by another tenant of
	// the host that spans fewer than half the slices does not move them.
	// A 25-second run puts over a hundred jobs in each slice, so at
	// least ten lie beyond each slice's p90.
	slice := wall / daemonSlices
	sliceOf := func(j daemonJob) int { return min(int(j.end/slice), daemonSlices-1) }
	var (
		walls             [daemonSlices][]float64
		queue, execs      []float64
		submit            time.Duration
		benchExec         [daemonSlices]time.Duration
		winstr, completed [daemonSlices]int64
		hits, analyses    int
		missed            []analyzeKey
		missedSeen        = map[string]bool{}
		distinct          = map[string]*jobResult{}
	)
	for _, j := range jobs {
		ok := chk.daemon(j)
		completed[sliceOf(j)]++
		walls[sliceOf(j)] = append(walls[sliceOf(j)], ms(j.total))
		submit += j.submit
		if j.status == nil {
			continue
		}
		exec := j.status.FinishedAt.Sub(j.status.StartedAt)
		queue = append(queue, ms(j.status.StartedAt.Sub(j.status.EnqueuedAt)))
		execs = append(execs, ms(exec))
		if k := j.spec.bench; k != nil {
			if ok {
				winstr[sliceOf(j)] += chk.golden.Sim[k.goldenKey()].WarpInstrs
				benchExec[sliceOf(j)] += exec
				distinct[k.String()] = &jobResult{Key: *k, Cycles: j.status.Runs[0].Cycles}
			}
			continue
		}
		analyses++
		if j.status.CacheHit {
			hits++
		} else if a := *j.spec.analyze; !missedSeen[a.String()] {
			missedSeen[a.String()] = true
			missed = append(missed, a)
		}
	}
	n := float64(len(jobs))
	var p50, p90, jobRate, simRate []float64
	for i := 0; i < daemonSlices; i++ {
		p50, p90 = append(p50, percentile(walls[i], 50)), append(p90, percentile(walls[i], 90))
		jobRate = append(jobRate, float64(completed[i])/slice.Seconds())
		simRate = append(simRate, ratio(float64(winstr[i]), benchExec[i].Seconds()))
	}
	m["job_ms_p50"] = median(p50)
	m["job_ms_p90"] = median(p90)
	m["jobs_per_s"] = median(jobRate)
	m["sim_winstr_per_s"] = median(simRate)
	var cycles int64
	for _, r := range distinct {
		cycles += r.Cycles
	}
	m["sim_cycles"] = float64(cycles)
	m["alloc_mb_per_job"] = float64(after.allocBytes-before.allocBytes) / 1e6 / n
	runtimeLayer(before, after, len(jobs), m)
	m["service.submit_ms"] = ms(submit) / n
	m["service.queue_wait_ms_p50"] = percentile(queue, 50)
	m["service.queue_wait_ms_p90"] = percentile(queue, 90)
	m["service.exec_ms_p50"] = percentile(execs, 50)
	m["service.cache_hit_ratio"] = ratio(float64(hits), float64(analyses))
	s := st.daemon.srv.Stats()
	m["service.rejected"] = float64(s.Rejected.QueueFull + s.Rejected.Quota + s.Rejected.Draining)
	if !trace {
		return len(jobs), nil
	}

	var (
		samples     []*layerSample
		traced      []*jobResult
		inproc      = map[string]*jobResult{}
		tracedDist  = map[string]*layerSample{}
		untimedWall time.Duration
		static      time.Duration
	)
	for _, k := range daemonBenchKeys() {
		r, err := execJob(ctx, k, st.dir, true)
		if !chk.sim(k, r, err) {
			continue
		}
		inproc[k.String()] = r
		tr, ls, err := tracedJob(ctx, k, st.dir, 0)
		if chk.traced(k, r, tr, err) {
			samples, traced = append(samples, ls), append(traced, tr)
			tracedDist[k.String()] = ls
			untimedWall += r.Wall
		}
	}
	layerMetrics(samples, traced, inproc, tracedDist, m)
	m["trace_overhead"] = ratio(float64(sumWall(samples)), float64(untimedWall))
	if len(missed) > 10 {
		missed = missed[:10]
	}
	for _, a := range missed {
		chk.attempted++
		got, spent, err := analyzeInProcess(a)
		if err != nil || got != chk.golden.Analyze[a.String()] {
			chk.fail("%s: in-process analysis differs from the recorded result (%v)", a, err)
			continue
		}
		static += spent
	}
	if len(missed) > 0 {
		m["staticrace.analyze_ms"] = ms(static) / float64(len(missed))
	}
	return len(jobs), nil
}
