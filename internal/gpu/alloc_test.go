package gpu_test

import (
	"testing"

	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/isa"
	"haccrg/internal/kernels"
)

const (
	aTid  = isa.Reg(1)
	aAddr = isa.Reg(2)
	aBase = isa.Reg(3)
	aVal  = isa.Reg(4)
	aOld  = isa.Reg(5)
)

// memOpKernel builds a one-block kernel whose last instruction before
// EXIT is a single warp memory instruction of the given kind and
// space, each lane touching its own 4-byte word. It returns the
// kernel and the memory instruction's pc.
func memOpKernel(op isa.Op, space isa.Space, buf uint64) (*gpu.Kernel, int) {
	b := isa.NewBuilder("memop")
	b.Sreg(aTid, isa.SregTid)
	b.Muli(aAddr, aTid, 4)
	if space == isa.SpaceGlobal {
		b.Ldp(aBase, 0)
		b.Add(aAddr, aBase, aAddr)
	}
	b.Movi(aVal, 1)
	pc := b.PC()
	switch op {
	case isa.OpLd:
		b.Ld(aOld, space, aAddr, 0, 4)
	case isa.OpSt:
		b.St(space, aAddr, 0, aVal, 4)
	case isa.OpAtom:
		b.Atom(aOld, isa.AtomAdd, space, aAddr, 0, aVal, 0)
	}
	b.Exit()
	k := &gpu.Kernel{Name: "memop", Prog: b.MustBuild(), GridDim: 1, BlockDim: 32, Params: []uint64{buf}}
	if space == isa.SpaceShared {
		k.SharedBytes = 32 * 4
	}
	return k, pc
}

// TestWarpMemInstrAllocationFree pins the steady-state warp memory
// instruction at zero heap allocations: shared and global loads,
// stores and atomics, with detection off and under the serial
// HAccRG detector (shared + global RDUs).
func TestWarpMemInstrAllocationFree(t *testing.T) {
	detectors := map[string]func() gpu.Detector{
		"off": func() gpu.Detector { return gpu.NopDetector{} },
		"core": func() gpu.Detector {
			d, err := core.New(core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
	for dname, mk := range detectors {
		for _, space := range []isa.Space{isa.SpaceShared, isa.SpaceGlobal} {
			for _, op := range []isa.Op{isa.OpLd, isa.OpSt, isa.OpAtom} {
				d := gpu.MustNewDevice(gpu.TestConfig(), 1<<16, mk())
				k, pc := memOpKernel(op, space, d.MustMalloc(32*4))
				step, err := d.StepWarp(k)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < pc; i++ {
					step(i)
				}
				if n := testing.AllocsPerRun(100, func() { step(pc) }); n != 0 {
					t.Errorf("%s %s %s: %v allocs per warp instruction, want 0", dname, space, op, n)
				}
			}
		}
	}
}

// TestNewDeviceAllocs bounds device construction: cache lines live in
// one slab per cache and the memory-path scratch is sized by the warp
// size, so allocations grow with the SM and partition counts only,
// not with cache sets or device memory.
func TestNewDeviceAllocs(t *testing.T) {
	cfg := gpu.DefaultConfig()
	n := testing.AllocsPerRun(5, func() { gpu.MustNewDevice(cfg, 1<<20, nil) })
	limit := float64(16*(cfg.NumSMs+cfg.NumPartitions) + 32)
	if n > limit {
		t.Errorf("NewDevice: %v allocs, want at most %v", n, limit)
	}
	t.Logf("NewDevice: %v allocs (%d SMs, %d partitions)", n, cfg.NumSMs, cfg.NumPartitions)
}

// BenchmarkSimulatorThroughput measures the engine's host-side speed
// in simulated thread-instructions per wall second, with allocations
// per run (device construction included): a streaming global-memory
// kernel with detection off, and the shared-memory reduction under the
// serial HAccRG detector.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.Run("vecadd-off", func(b *testing.B) {
		b.ReportAllocs()
		var instrs int64
		for i := 0; i < b.N; i++ {
			d := gpu.MustNewDevice(gpu.TestConfig(), 1<<20, nil)
			st, err := d.Launch(vecAdd(64, 64, d.MustMalloc(4096*4), d.MustMalloc(4096*4)))
			if err != nil {
				b.Fatal(err)
			}
			instrs += st.ThreadInstrs
		}
		b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "thread-instrs/s")
	})
	b.Run("reduce-core", func(b *testing.B) {
		b.ReportAllocs()
		bm := kernels.Get("reduce")
		var instrs int64
		for i := 0; i < b.N; i++ {
			det, err := core.New(core.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			d := gpu.MustNewDevice(gpu.TestConfig(), bm.GlobalBytes(1), det)
			plan, err := bm.Build(d, kernels.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			st, err := plan.Run(d)
			if err != nil {
				b.Fatal(err)
			}
			instrs += st.ThreadInstrs
		}
		b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "thread-instrs/s")
	})
	// Host time per issued warp instruction of an ALU-bound loop, on
	// one reused device: with every SM fully occupied, and as a grid
	// of four blocks on the 30-SM Table I machine, where most SMs hold
	// no work.
	aluRun := func(b *testing.B, cfg gpu.Config, grid int) {
		b.ReportAllocs()
		d := gpu.MustNewDevice(cfg, 1<<16, nil)
		k := aluLoop(grid, 256, 64)
		var winstrs int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := d.Launch(k)
			if err != nil {
				b.Fatal(err)
			}
			winstrs += st.WarpInstrs
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(winstrs), "ns/warp-instr")
	}
	b.Run("alu-full", func(b *testing.B) { aluRun(b, gpu.TestConfig(), fullGrid(gpu.TestConfig())) })
	b.Run("sparse", func(b *testing.B) { aluRun(b, gpu.DefaultConfig(), 4) })
}

// aluLoop builds an ALU-bound kernel: every thread runs trips
// iterations of integer arithmetic on registers, with no memory
// traffic after the parameter-free preamble.
func aluLoop(grid, blockDim int, trips int64) *gpu.Kernel {
	b := isa.NewBuilder("aluloop")
	b.Sreg(aTid, isa.SregGtid)
	b.Movi(aVal, 1)
	b.Movi(aOld, 0)
	b.Setpi(0, isa.CmpLT, aOld, trips)
	b.While(0)
	b.Add(aVal, aVal, aTid)
	b.Xor(aAddr, aVal, aTid)
	b.Shli(aBase, aAddr, 1)
	b.Mul(aVal, aBase, aVal)
	b.Addi(aOld, aOld, 1)
	b.Setpi(0, isa.CmpLT, aOld, trips)
	b.EndWhile()
	b.Exit()
	return &gpu.Kernel{Name: "aluloop", Prog: b.MustBuild(), GridDim: grid, BlockDim: blockDim}
}

// fullGrid is the block count that fills every SM of cfg with
// 256-thread blocks.
func fullGrid(cfg gpu.Config) int {
	return cfg.NumSMs * min(cfg.MaxBlocksPerSM, cfg.MaxThreadsPerSM/256)
}

// TestLaunchAllocsIndependentOfTripCount pins the steady-state issue
// loop at zero allocations: a launch of an ALU kernel allocates only
// its per-launch bookkeeping (blocks, warps, stats), so sixteen times
// the loop trips must not add a single allocation.
func TestLaunchAllocsIndependentOfTripCount(t *testing.T) {
	cfg := gpu.TestConfig()
	d := gpu.MustNewDevice(cfg, 1<<16, nil)
	allocs := func(trips int64) float64 {
		k := aluLoop(fullGrid(cfg), 256, trips)
		return testing.AllocsPerRun(5, func() {
			if _, err := d.Launch(k); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(16), allocs(256)
	if long > short {
		t.Errorf("launch allocations grow with trip count: %v allocs at 16 trips, %v at 256", short, long)
	}
	t.Logf("%v allocs per launch at 16 and %v at 256 trips", short, long)
}

// vecAdd builds out[i] = in[i] + 1 over grid*blockDim threads.
func vecAdd(grid, blockDim int, in, out uint64) *gpu.Kernel {
	b := isa.NewBuilder("vecadd")
	b.Sreg(aTid, isa.SregGtid)
	b.Muli(aTid, aTid, 4)
	b.Ldp(aBase, 0)
	b.Add(aAddr, aBase, aTid)
	b.Ld(aVal, isa.SpaceGlobal, aAddr, 0, 4)
	b.Addi(aVal, aVal, 1)
	b.Ldp(aBase, 1)
	b.Add(aAddr, aBase, aTid)
	b.St(isa.SpaceGlobal, aAddr, 0, aVal, 4)
	b.Exit()
	return &gpu.Kernel{Name: "vecadd", Prog: b.MustBuild(), GridDim: grid, BlockDim: blockDim, Params: []uint64{in, out}}
}
