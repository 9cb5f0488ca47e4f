package gpu

import (
	"math"
	"math/bits"

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

// aluWarp executes a non-memory, non-control instruction for the
// lanes set in mask. It dispatches on the opcode once per warp
// instruction, and each case runs its own lane loop. Special-register
// reads (OpSreg) need the warp's identity and are executed by the SM,
// not here.
func aluWarp(in *isa.Instr, lanes []lane, mask uint64) {
	switch in.Op {
	case isa.OpNop:
	case isa.OpMov:
		intOp(in, lanes, mask, func(a, b uint64) uint64 {
			if in.UseImm {
				return b
			}
			return a
		})
	case isa.OpSelp:
		for m := mask; m != 0; m &= m - 1 {
			ln := &lanes[bits.TrailingZeros64(m)]
			if ln.preds[in.PD] {
				ln.regs[in.Dst] = ln.regs[in.SrcA]
			} else {
				ln.regs[in.Dst] = ln.regs[in.SrcC]
			}
		}
	case isa.OpMad:
		for m := mask; m != 0; m &= m - 1 {
			ln := &lanes[bits.TrailingZeros64(m)]
			b := uint64(in.Imm)
			if !in.UseImm {
				b = ln.regs[in.SrcB]
			}
			ln.regs[in.Dst] = uint64(int64(ln.regs[in.SrcA])*int64(b) + int64(ln.regs[in.SrcC]))
		}
	case isa.OpAdd:
		intOp(in, lanes, mask, func(a, b uint64) uint64 { return a + b })
	case isa.OpSub:
		intOp(in, lanes, mask, func(a, b uint64) uint64 { return a - b })
	case isa.OpMul:
		intOp(in, lanes, mask, func(a, b uint64) uint64 { return uint64(int64(a) * int64(b)) })
	case isa.OpDiv:
		intOp(in, lanes, mask, func(a, b uint64) uint64 {
			if b == 0 {
				return 0
			}
			return uint64(int64(a) / int64(b))
		})
	case isa.OpRem:
		intOp(in, lanes, mask, func(a, b uint64) uint64 {
			if b == 0 {
				return 0
			}
			return uint64(int64(a) % int64(b))
		})
	case isa.OpMin:
		intOp(in, lanes, mask, func(a, b uint64) uint64 { return uint64(min(int64(a), int64(b))) })
	case isa.OpMax:
		intOp(in, lanes, mask, func(a, b uint64) uint64 { return uint64(max(int64(a), int64(b))) })
	case isa.OpAnd:
		intOp(in, lanes, mask, func(a, b uint64) uint64 { return a & b })
	case isa.OpOr:
		intOp(in, lanes, mask, func(a, b uint64) uint64 { return a | b })
	case isa.OpXor:
		intOp(in, lanes, mask, func(a, b uint64) uint64 { return a ^ b })
	case isa.OpNot:
		intOp(in, lanes, mask, func(a, _ uint64) uint64 { return ^a })
	case isa.OpShl:
		intOp(in, lanes, mask, func(a, b uint64) uint64 { return a << (b & 63) })
	case isa.OpShr:
		intOp(in, lanes, mask, func(a, b uint64) uint64 { return uint64(int64(a) >> (b & 63)) })
	case isa.OpItoF:
		intOp(in, lanes, mask, func(a, _ uint64) uint64 { return u64(float64(int64(a))) })
	case isa.OpFtoI:
		intOp(in, lanes, mask, func(a, _ uint64) uint64 { return uint64(int64(f64(a))) })
	case isa.OpFAdd:
		intOp(in, lanes, mask, func(a, b uint64) uint64 { return u64(f64(a) + f64(b)) })
	case isa.OpFSub:
		intOp(in, lanes, mask, func(a, b uint64) uint64 { return u64(f64(a) - f64(b)) })
	case isa.OpFMul:
		intOp(in, lanes, mask, func(a, b uint64) uint64 { return u64(f64(a) * f64(b)) })
	case isa.OpFDiv:
		intOp(in, lanes, mask, func(a, b uint64) uint64 { return u64(f64(a) / f64(b)) })
	case isa.OpFMin:
		intOp(in, lanes, mask, func(a, b uint64) uint64 { return u64(math.Min(f64(a), f64(b))) })
	case isa.OpFMax:
		intOp(in, lanes, mask, func(a, b uint64) uint64 { return u64(math.Max(f64(a), f64(b))) })
	case isa.OpFSqrt:
		intOp(in, lanes, mask, func(a, _ uint64) uint64 { return u64(math.Sqrt(f64(a))) })
	case isa.OpFExp:
		intOp(in, lanes, mask, func(a, _ uint64) uint64 { return u64(math.Exp(f64(a))) })
	case isa.OpFLog:
		intOp(in, lanes, mask, func(a, _ uint64) uint64 { return u64(math.Log(f64(a))) })
	case isa.OpFSin:
		intOp(in, lanes, mask, func(a, _ uint64) uint64 { return u64(math.Sin(f64(a))) })
	case isa.OpFCos:
		intOp(in, lanes, mask, func(a, _ uint64) uint64 { return u64(math.Cos(f64(a))) })
	case isa.OpFAbs:
		intOp(in, lanes, mask, func(a, _ uint64) uint64 { return u64(math.Abs(f64(a))) })
	case isa.OpSetp:
		for m := mask; m != 0; m &= m - 1 {
			ln := &lanes[bits.TrailingZeros64(m)]
			b := uint64(in.Imm)
			if !in.UseImm {
				b = ln.regs[in.SrcB]
			}
			ln.preds[in.PD] = intCmp(in.Cmp, int64(ln.regs[in.SrcA]), int64(b))
		}
	case isa.OpFSetp:
		for m := mask; m != 0; m &= m - 1 {
			ln := &lanes[bits.TrailingZeros64(m)]
			b := uint64(in.Imm)
			if !in.UseImm {
				b = ln.regs[in.SrcB]
			}
			ln.preds[in.PD] = floatCmp(in.Cmp, f64(ln.regs[in.SrcA]), f64(b))
		}
	}
}

// intOp applies op to each masked lane's SrcA and second operand (the
// immediate, or SrcB) and writes Dst. It is small enough to inline, so
// each case's op inlines into its own lane loop.
func intOp(in *isa.Instr, lanes []lane, mask uint64, op func(a, b uint64) uint64) {
	for m := mask; m != 0; m &= m - 1 {
		r := &lanes[bits.TrailingZeros64(m)].regs
		b := uint64(in.Imm)
		if !in.UseImm {
			b = r[in.SrcB]
		}
		r[in.Dst] = op(r[in.SrcA], b)
	}
}

// f64 and u64 reinterpret a register as a float64 and back.
func f64(r uint64) float64 { return math.Float64frombits(r) }
func u64(f float64) uint64 { return math.Float64bits(f) }

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
