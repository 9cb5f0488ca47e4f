package gpu

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
)

// schedConfigs are the machine shapes the scheduler oracle runs on:
// the 4-SM test device, the paper's 30-SM Table I machine, and the
// 16-SM Fermi configuration (one-cycle issue interval).
func schedConfigs() map[string]Config {
	return map[string]Config{
		"test":    TestConfig(),
		"default": DefaultConfig(),
		"fermi":   FermiConfig(),
	}
}

// launchOutcome is everything observable about one launch.
type launchOutcome struct {
	st  *LaunchStats
	err error
	img []byte // device memory after the launch
}

// runBoth launches the kernel built by mk on two fresh devices, one
// through LaunchContext and one through the reference loop LaunchRef,
// and fails unless stats, error and memory image are identical.
func runBoth(t *testing.T, name string, cfg Config, det func(*Device) Detector, mk func(*Device) *Kernel,
	ctx func() context.Context, lim LaunchLimits) launchOutcome {
	t.Helper()
	run := func(ref bool) launchOutcome {
		d, err := NewDevice(cfg, 1<<18, nil)
		if err != nil {
			t.Fatal(err)
		}
		if det != nil {
			d.detector = det(d)
		}
		k := mk(d)
		launch := d.LaunchContext
		if ref {
			launch = d.LaunchRef
		}
		st, err := launch(ctx(), k, lim)
		return launchOutcome{st: st, err: err, img: d.Global.Bytes()}
	}
	got, want := run(false), run(true)
	if !reflect.DeepEqual(got.st, want.st) {
		t.Errorf("%s: stats differ from the reference scheduler\n got %+v\nwant %+v", name, got.st, want.st)
	}
	if !reflect.DeepEqual(got.err, want.err) {
		t.Errorf("%s: error differs from the reference scheduler\n got %v\nwant %v", name, got.err, want.err)
	}
	if !bytes.Equal(got.img, want.img) {
		t.Errorf("%s: device memory differs from the reference scheduler", name)
	}
	return got
}

func background() context.Context { return context.Background() }

// TestScheduleMatchesReferenceRandomPrograms runs random structured
// programs (divergence, loops, private global traffic) over grids
// larger than one wave, so retirement places new blocks mid-launch,
// under both policies on every machine shape.
func TestScheduleMatchesReferenceRandomPrograms(t *testing.T) {
	for cname, cfg := range schedConfigs() {
		for _, pol := range []SchedPolicy{SchedRoundRobin, SchedGTO} {
			cfg.Scheduler = pol
			for seed := int64(0); seed < 8; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", cname, pol, seed)
				runBoth(t, name, cfg, nil, func(d *Device) *Kernel {
					g := newProgGen(seed)
					scratch := d.MustMalloc(dtThreads * dtSlotSize)
					out := d.MustMalloc(dtThreads * dtOutRegs * 8)
					prog := g.build(out)
					return &Kernel{
						Name: prog.Name, Prog: prog,
						GridDim: 2*cfg.NumSMs + 3, BlockDim: dtThreads,
						Params: []uint64{scratch, out},
					}
				}, background, LaunchLimits{})
			}
		}
	}
}

// countdownCtx is a context whose Err turns Canceled after a fixed
// number of calls, so a cancellation lands on the same scheduler step
// in every run.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// strandDetector strands every warp of one block at a barrier that no
// arrival will ever complete (a lost barrier arrival) the first time
// the block issues a memory instruction. It acts on the issuing SM's
// own warps only, as every device-side state change does. The other
// blocks retire; then no warp is runnable and the launch deadlocks.
type strandDetector struct {
	NopDetector
	dev   *Device
	block int
}

func (s *strandDetector) WarpMem(ev *WarpMemEvent) int64 {
	if ev.Block != s.block {
		return 0
	}
	if b := s.dev.live[ev.Block]; b != nil {
		for _, w := range b.warps {
			w.state = warpAtBarrier
		}
	}
	return 0
}

// TestScheduleMatchesReferenceAborts pins the abort paths: a deadlock,
// an exhausted cycle budget and a context cancel must stop both loops
// at the same cycle with the same reason and block diagnostics.
func TestScheduleMatchesReferenceAborts(t *testing.T) {
	for cname, cfg := range schedConfigs() {
		for _, pol := range []SchedPolicy{SchedRoundRobin, SchedGTO} {
			cfg.Scheduler = pol
			prefix := cname + "/" + pol.String()

			strand := func(d *Device) Detector { return &strandDetector{dev: d, block: 1} }
			vecAdd := func(d *Device) *Kernel {
				n := (cfg.NumSMs + 3) * 64
				return vecAddKernel(cfg.NumSMs+3, 64, d.MustMalloc(n*4), d.MustMalloc(n*4))
			}
			got := runBoth(t, prefix+"/deadlock", cfg, strand, vecAdd, background, LaunchLimits{})
			wantHang(t, prefix+"/deadlock", got.err, HangDeadlock)

			spin := func(*Device) *Kernel { return spinKernel(cfg.NumSMs+1, 64) }
			got = runBoth(t, prefix+"/budget", cfg, nil, spin, background, LaunchLimits{MaxCycles: 7777})
			wantHang(t, prefix+"/budget", got.err, HangCycleBudget)

			barHang := func(*Device) *Kernel { return barrierHangKernel() }
			got = runBoth(t, prefix+"/barrier-budget", cfg, nil, barHang, background, LaunchLimits{MaxCycles: 5000})
			wantHang(t, prefix+"/barrier-budget", got.err, HangCycleBudget)

			cancelAfter := func() context.Context { return &countdownCtx{Context: context.Background(), left: 3} }
			got = runBoth(t, prefix+"/cancel", cfg, nil, spin, cancelAfter, LaunchLimits{})
			wantHang(t, prefix+"/cancel", got.err, HangCanceled)
		}
	}
}

func wantHang(t *testing.T, name string, err error, reason HangReason) {
	t.Helper()
	he, ok := err.(*HangError)
	if !ok {
		t.Fatalf("%s: error %v, want a *HangError", name, err)
	}
	if he.Reason != reason || len(he.Blocks) == 0 {
		t.Errorf("%s: reason %q with %d blocks, want %q with diagnostics", name, he.Reason, len(he.Blocks), reason)
	}
}
