package gpu

import (
	"math"

	"haccrg/internal/bloom"
	"haccrg/internal/isa"
)

// warpState is the scheduler-visible state of a warp.
type warpState uint8

const (
	warpReady warpState = iota
	warpAtBarrier
	warpDone
)

// divCtx is one SIMT divergence-stack entry: resume execution at pc
// with the given active mask, ending (reconverging) at rcv.
type divCtx struct {
	pc   int
	mask uint64
	rcv  int // -1 for the top-level context
}

// lane holds one thread's architectural state.
type lane struct {
	regs  [isa.NumRegs]uint64
	preds [isa.NumPreds]bool

	sig       bloom.Sig // lockset signature (the paper's atomic ID register)
	critDepth int       // lock nesting depth; signature clears at zero
}

// warp is 32 threads executing in lockstep.
type warp struct {
	block   *block
	inBlock int // warp index within the block

	pc    int
	mask  uint64 // current active mask
	alive uint64 // lanes that have not exited
	rcv   int    // reconvergence PC of the current context
	stack []divCtx

	lanes []lane

	state     warpState
	readyAt   int64
	storeDone int64 // completion cycle of the latest outstanding store

	fenceID uint32 // per-warp fence logical clock (paper Section III-C)
}

func fullMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// newWarp builds warp w of a block over a zeroed lane array whose
// length is the warp size; tail warps of a non-multiple block dimension
// start with only the valid lanes alive.
func newWarp(b *block, inBlock int, lanes []lane) *warp {
	warpSize := len(lanes)
	base := inBlock * warpSize
	n := b.dim - base
	if n > warpSize {
		n = warpSize
	}
	w := &warp{
		block:   b,
		inBlock: inBlock,
		rcv:     -1,
		lanes:   lanes,
		mask:    fullMask(n),
		alive:   fullMask(n),
	}
	return w
}

// tidOf returns the block-relative thread id of a lane.
func (w *warp) tidOf(laneIdx int) int { return w.inBlock*len(w.lanes) + laneIdx }

// guardMask evaluates an instruction's guard over the active lanes.
func (w *warp) guardMask(in *isa.Instr) uint64 {
	if in.Pred == isa.NoPred {
		return w.mask
	}
	var m uint64
	for l := 0; l < len(w.lanes); l++ {
		if w.mask&(1<<uint(l)) == 0 {
			continue
		}
		p := w.lanes[l].preds[in.Pred]
		if in.PredNeg {
			p = !p
		}
		if p {
			m |= 1 << uint(l)
		}
	}
	return m
}

// reconverge pops divergence contexts whose join point has been
// reached. Called before each fetch.
func (w *warp) reconverge() {
	for w.rcv >= 0 && w.pc == w.rcv && len(w.stack) > 0 {
		top := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		w.pc = top.pc
		w.mask = top.mask & w.alive
		w.rcv = top.rcv
	}
}

// branch executes a (possibly divergent) branch over execMask, the
// guard-qualified active lanes. Returns true if the warp diverged.
func (w *warp) branch(in *isa.Instr, execMask uint64) bool {
	if in.Pred == isa.NoPred {
		w.pc = in.Tgt
		return false
	}
	taken := execMask
	notTaken := w.mask &^ execMask
	switch {
	case notTaken == 0:
		w.pc = in.Tgt
		return false
	case taken == 0:
		w.pc++
		return false
	}
	// Divergence: run the taken path first; the fall-through path and
	// the post-join continuation wait on the stack.
	w.stack = append(w.stack,
		divCtx{pc: in.Rcv, mask: w.mask, rcv: w.rcv},
		divCtx{pc: w.pc + 1, mask: notTaken, rcv: in.Rcv},
	)
	w.pc = in.Tgt
	w.mask = taken
	w.rcv = in.Rcv
	return true
}

// exit retires execMask's lanes; the warp finishes when none are left.
func (w *warp) exit(execMask uint64) {
	w.alive &^= execMask
	w.mask &^= execMask
	for w.mask == 0 {
		if len(w.stack) == 0 {
			w.state = warpDone
			return
		}
		top := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		w.pc = top.pc
		w.mask = top.mask & w.alive
		w.rcv = top.rcv
	}
}

// aluLane executes a non-memory, non-control instruction for one lane.
func aluLane(in *isa.Instr, ln *lane, sr func(isa.SregKind) uint64) {
	src := func(r isa.Reg) uint64 { return ln.regs[r] }
	b := func() uint64 {
		if in.UseImm {
			return uint64(in.Imm)
		}
		return src(in.SrcB)
	}
	f := func(r isa.Reg) float64 { return math.Float64frombits(ln.regs[r]) }
	fb := func() float64 {
		if in.UseImm {
			return math.Float64frombits(uint64(in.Imm))
		}
		return f(in.SrcB)
	}
	setF := func(v float64) { ln.regs[in.Dst] = math.Float64bits(v) }

	switch in.Op {
	case isa.OpNop:
	case isa.OpMov:
		if in.UseImm {
			ln.regs[in.Dst] = uint64(in.Imm)
		} else {
			ln.regs[in.Dst] = src(in.SrcA)
		}
	case isa.OpSreg:
		ln.regs[in.Dst] = sr(isa.SregKind(in.Imm))
	case isa.OpSelp:
		if ln.preds[in.PD] {
			ln.regs[in.Dst] = src(in.SrcA)
		} else {
			ln.regs[in.Dst] = src(in.SrcC)
		}
	case isa.OpAdd:
		ln.regs[in.Dst] = src(in.SrcA) + b()
	case isa.OpSub:
		ln.regs[in.Dst] = src(in.SrcA) - b()
	case isa.OpMul:
		ln.regs[in.Dst] = uint64(int64(src(in.SrcA)) * int64(b()))
	case isa.OpDiv:
		d := int64(b())
		if d == 0 {
			ln.regs[in.Dst] = 0
		} else {
			ln.regs[in.Dst] = uint64(int64(src(in.SrcA)) / d)
		}
	case isa.OpRem:
		d := int64(b())
		if d == 0 {
			ln.regs[in.Dst] = 0
		} else {
			ln.regs[in.Dst] = uint64(int64(src(in.SrcA)) % d)
		}
	case isa.OpMin:
		x, y := int64(src(in.SrcA)), int64(b())
		if y < x {
			x = y
		}
		ln.regs[in.Dst] = uint64(x)
	case isa.OpMax:
		x, y := int64(src(in.SrcA)), int64(b())
		if y > x {
			x = y
		}
		ln.regs[in.Dst] = uint64(x)
	case isa.OpAnd:
		ln.regs[in.Dst] = src(in.SrcA) & b()
	case isa.OpOr:
		ln.regs[in.Dst] = src(in.SrcA) | b()
	case isa.OpXor:
		ln.regs[in.Dst] = src(in.SrcA) ^ b()
	case isa.OpNot:
		ln.regs[in.Dst] = ^src(in.SrcA)
	case isa.OpShl:
		ln.regs[in.Dst] = src(in.SrcA) << (b() & 63)
	case isa.OpShr:
		ln.regs[in.Dst] = uint64(int64(src(in.SrcA)) >> (b() & 63))
	case isa.OpMad:
		ln.regs[in.Dst] = uint64(int64(src(in.SrcA))*int64(b()) + int64(src(in.SrcC)))
	case isa.OpFAdd:
		setF(f(in.SrcA) + fb())
	case isa.OpFSub:
		setF(f(in.SrcA) - fb())
	case isa.OpFMul:
		setF(f(in.SrcA) * fb())
	case isa.OpFDiv:
		setF(f(in.SrcA) / fb())
	case isa.OpFMin:
		setF(math.Min(f(in.SrcA), fb()))
	case isa.OpFMax:
		setF(math.Max(f(in.SrcA), fb()))
	case isa.OpFSqrt:
		setF(math.Sqrt(f(in.SrcA)))
	case isa.OpFExp:
		setF(math.Exp(f(in.SrcA)))
	case isa.OpFLog:
		setF(math.Log(f(in.SrcA)))
	case isa.OpFSin:
		setF(math.Sin(f(in.SrcA)))
	case isa.OpFCos:
		setF(math.Cos(f(in.SrcA)))
	case isa.OpFAbs:
		setF(math.Abs(f(in.SrcA)))
	case isa.OpItoF:
		setF(float64(int64(src(in.SrcA))))
	case isa.OpFtoI:
		ln.regs[in.Dst] = uint64(int64(f(in.SrcA)))
	case isa.OpSetp:
		ln.preds[in.PD] = intCmp(in.Cmp, int64(src(in.SrcA)), int64(b()))
	case isa.OpFSetp:
		ln.preds[in.PD] = floatCmp(in.Cmp, f(in.SrcA), fb())
	}
}

func intCmp(c isa.CmpOp, a, b int64) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	}
	return false
}

func floatCmp(c isa.CmpOp, a, b float64) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	}
	return false
}
