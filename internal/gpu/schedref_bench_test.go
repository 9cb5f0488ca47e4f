package gpu_test

import (
	"context"
	"reflect"
	"testing"

	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/kernels"
)

// benchOutcome is one benchmark run: per-kernel stats and the
// detector's findings.
type benchOutcome struct {
	stats []*gpu.LaunchStats
	races []string
}

// runBench builds bm on a fresh device under the HAccRG detector
// (shared and global RDUs) and launches its kernels in order, through
// LaunchRef when ref is set.
func runBench(t *testing.T, bm *kernels.Benchmark, cfg gpu.Config, ref bool) benchOutcome {
	t.Helper()
	det, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := gpu.MustNewDevice(cfg, bm.GlobalBytes(1), det)
	plan, err := bm.Build(d, kernels.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var out benchOutcome
	launch := d.LaunchContext
	if ref {
		launch = d.LaunchRef
	}
	for _, k := range plan.Kernels {
		st, err := launch(context.Background(), k, gpu.LaunchLimits{})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		out.stats = append(out.stats, st)
	}
	for _, r := range det.Races() {
		out.races = append(out.races, r.String())
	}
	return out
}

// TestScheduleMatchesReferenceBenchmarks runs all ten benchmarks under
// both scheduling policies on the test, Table I and Fermi machines and
// requires the event-driven scheduler to reproduce the reference
// full-scan loop exactly: every LaunchStats field (cycles, issue
// slots, cache, DRAM and NoC counters, detector stalls) and every race
// the detector reports.
func TestScheduleMatchesReferenceBenchmarks(t *testing.T) {
	configs := map[string]gpu.Config{
		"test":    gpu.TestConfig(),
		"default": gpu.DefaultConfig(),
		"fermi":   gpu.FermiConfig(),
	}
	for _, bm := range kernels.All() {
		for cname, cfg := range configs {
			for _, pol := range []gpu.SchedPolicy{gpu.SchedRoundRobin, gpu.SchedGTO} {
				cfg.Scheduler = pol
				name := bm.Name + "/" + cname + "/" + pol.String()
				got := runBench(t, bm, cfg, false)
				want := runBench(t, bm, cfg, true)
				for i := range want.stats {
					if !reflect.DeepEqual(got.stats[i], want.stats[i]) {
						t.Errorf("%s kernel %d: stats differ from the reference scheduler\n got %+v\nwant %+v",
							name, i, got.stats[i], want.stats[i])
					}
				}
				if !reflect.DeepEqual(got.races, want.races) {
					t.Errorf("%s: findings differ from the reference scheduler\n got %q\nwant %q", name, got.races, want.races)
				}
			}
		}
	}
}
