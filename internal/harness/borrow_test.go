package harness

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"haccrg/internal/bloom"
	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/journal"
	"haccrg/internal/kernels"
)

// poisonDetector enforces the WarpMemEvent borrow contract: after every
// inner WarpMem it scribbles over the event and its lanes, as the
// device's next memory instruction will when it reuses them. A
// detector that keeps ev or ev.Lanes past the call then reads garbage
// at once and its findings or timing change.
type poisonDetector struct{ gpu.Detector }

func (p poisonDetector) Inner() gpu.Detector { return p.Detector }

func (p poisonDetector) Health() *gpu.DetectorHealth {
	if hr, ok := p.Detector.(gpu.HealthReporter); ok {
		return hr.Health()
	}
	return nil
}

func (p poisonDetector) WarpMem(ev *gpu.WarpMemEvent) int64 {
	stall := p.Detector.WarpMem(ev)
	for i := range ev.Lanes {
		ev.Lanes[i] = gpu.LaneAccess{
			Lane: -1, Tid: -1, GTid: -1, Addr: ^uint64(0), Size: 0xff,
			AtomicSig: ^bloom.Sig(0), InCrit: true, L1Hit: true, L1Fill: -1, Arrival: -1,
		}
	}
	*ev = gpu.WarpMemEvent{SM: -1, Block: -1, WarpInBlock: -1, PC: -1, Kernel: "poisoned",
		SyncID: ^uint32(0), FenceID: ^uint32(0), Cycle: -1, Lanes: ev.Lanes}
	return stall
}

// borrowRun is one run of a benchmark: its findings, launch stats and,
// when recorded, journal bytes.
type borrowRun struct {
	races   []*core.Race
	stats   *gpu.LaunchStats
	journal []byte
}

// runBorrow runs rc the way ExecContext does, optionally journaling the
// event stream and wrapping the whole detector chain in poisonDetector.
func runBorrow(t *testing.T, rc RunConfig, record, poison bool) borrowRun {
	t.Helper()
	det, coreDet, _, grDet, err := detectorFor(rc)
	if err != nil {
		t.Fatal(err)
	}
	var jnl bytes.Buffer
	if record {
		if det, err = journal.NewRecorder(&jnl, det); err != nil {
			t.Fatal(err)
		}
	}
	if poison {
		det = poisonDetector{det}
	}
	cfg := *testGPU()
	if rc.Detector == DetSharedGlobal {
		cfg.NoC.RDUMetaEnabled = true
	}
	bm := kernels.Get(rc.Bench)
	dev, err := gpu.NewDevice(cfg, bm.GlobalBytes(1), det)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := bm.Build(dev, kernels.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	st, err := plan.RunContext(context.Background(), dev, gpu.LaunchLimits{})
	if err != nil {
		t.Fatalf("%s/%s: %v", rc.Bench, rc.Detector, err)
	}
	out := borrowRun{stats: st, journal: jnl.Bytes()}
	if coreDet != nil {
		out.races = coreDet.SortedRaces()
	} else {
		out.races = grDet.Races()
	}
	return out
}

// TestDetectorsHonourEventBorrow runs every benchmark under each
// detector that consumes device events — the hardware shared+global
// HAccRG, its software build, GRace and the journal recorder — with
// and without poisoning the event after each WarpMem. Findings, launch
// stats (cycles included) and journal bytes must not change.
func TestDetectorsHonourEventBorrow(t *testing.T) {
	cases := []struct {
		name   string
		kind   DetectorKind
		record bool
	}{
		{"hw-shared+global", DetSharedGlobal, false},
		{"swdetect", DetSoftware, false},
		{"grace", DetGRace, false},
		{"journal", DetSharedGlobal, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			races := 0
			for _, bm := range kernels.All() {
				rc := RunConfig{Bench: bm.Name, Detector: c.kind, Scale: 1}
				want := runBorrow(t, rc, c.record, false)
				got := runBorrow(t, rc, c.record, true)
				if !reflect.DeepEqual(got.races, want.races) {
					t.Errorf("%s: findings differ under a poisoned event: %d races, want %d",
						bm.Name, len(got.races), len(want.races))
				}
				if !reflect.DeepEqual(got.stats, want.stats) {
					t.Errorf("%s: launch stats differ under a poisoned event: %d cycles, want %d",
						bm.Name, got.stats.Cycles, want.stats.Cycles)
				}
				if !bytes.Equal(got.journal, want.journal) {
					t.Errorf("%s: journal differs under a poisoned event (%d bytes, want %d)",
						bm.Name, len(got.journal), len(want.journal))
				}
				races += len(want.races)
			}
			if races == 0 {
				t.Error("no benchmark reported a race; the comparison proves nothing")
			}
		})
	}
}
