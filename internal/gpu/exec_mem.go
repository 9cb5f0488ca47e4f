package gpu

import (
	"fmt"
	"math"

	"haccrg/internal/isa"
	"haccrg/internal/mem"
)

// memInstr executes one LD/ST/ATOM warp instruction: functional effect
// at issue, timing through the shared-memory banks or the
// L1/NoC/partition path, plus the race-detection event.
func (s *sm) memInstr(w *warp, in *isa.Instr, execMask uint64, cycle int64, k *Kernel, st *LaunchStats) {
	issueDone := cycle + s.dev.issueInterval

	switch in.Space {
	case isa.SpaceParam:
		for l := range w.lanes {
			if execMask&(1<<uint(l)) == 0 {
				continue
			}
			ln := &w.lanes[l]
			addr := ln.regs[in.SrcA] + uint64(in.Imm)
			idx := int(addr / 8)
			if in.Op != isa.OpLd || idx >= len(k.Params) {
				s.fail(fmt.Errorf("gpu: kernel %q pc %d: bad param access (idx %d of %d)",
					k.Name, w.pc, idx, len(k.Params)))
				continue
			}
			ln.regs[in.Dst] = k.Params[idx]
		}
		w.readyAt = issueDone
		return

	case isa.SpaceShared:
		s.sharedInstr(w, in, execMask, cycle, k, st)
		return

	case isa.SpaceGlobal:
		s.globalInstr(w, in, execMask, cycle, k, st, false)
		return

	case isa.SpaceLocal:
		s.globalInstr(w, in, execMask, cycle, k, st, true)
		return
	}
}

// memScratch is one SM's reusable working set for warp memory
// instructions. An SM executes one warp instruction at a time, and the
// detector only borrows the event for the duration of WarpMem, so the
// steady-state memory path reuses these buffers and allocates nothing.
// Every slice is sized by the warp size at construction.
type memScratch struct {
	ev     WarpMemEvent
	active []int      // active lanes of a device-memory access, in lane order
	addrs  []uint64   // their byte addresses (shared: tile addresses)
	lines  []uint64   // coalesced segments, or an atomic's unique addresses
	info   []lineInfo // per entry of lines: what the RDU learns about it
}

// lineInfo is the timing outcome of one transaction of a warp access.
type lineInfo struct {
	hit  bool  // the access hit the L1
	arr  int64 // arrival at the partition (hits: L1 completion)
	fill int64 // hits: cycle the L1 line's data was last refreshed
	done int64 // atomics: completion of the address's transaction
}

func newMemScratch(warpSize int) memScratch {
	return memScratch{
		ev:     WarpMemEvent{Lanes: make([]LaneAccess, 0, warpSize)},
		active: make([]int, 0, warpSize),
		addrs:  make([]uint64, 0, warpSize),
		lines:  make([]uint64, 0, 2*warpSize), // a lane may straddle two segments
		info:   make([]lineInfo, 0, 2*warpSize),
	}
}

// event resets the SM's reusable event for instruction in of warp w.
func (s *sm) event(w *warp, in *isa.Instr, space isa.Space, cycle int64, k *Kernel) *WarpMemEvent {
	ev := &s.scratch.ev
	*ev = WarpMemEvent{
		Space:       space,
		Write:       in.Op == isa.OpSt,
		Atomic:      in.Op == isa.OpAtom,
		PC:          w.pc,
		SM:          s.id,
		Block:       w.block.id,
		WarpInBlock: w.inBlock,
		Kernel:      k.Name,
		Stmt:        in.Line,
		SyncID:      w.block.syncID,
		FenceID:     w.fenceID,
		Cycle:       cycle,
		Lanes:       ev.Lanes[:0],
	}
	return ev
}

// sharedInstr handles shared-memory accesses: bank-conflict timing and
// the shared-memory RDU event. Shared atomics serialize per address.
func (s *sm) sharedInstr(w *warp, in *isa.Instr, execMask uint64, cycle int64, k *Kernel, st *LaunchStats) {
	b := w.block
	tileAddrs := s.scratch.addrs[:0]
	ev := s.event(w, in, isa.SpaceShared, cycle, k)

	for l := range w.lanes {
		if execMask&(1<<uint(l)) == 0 {
			continue
		}
		ln := &w.lanes[l]
		rel := ln.regs[in.SrcA] + uint64(in.Imm)
		if rel+uint64(in.Size) > uint64(b.sharedSize) {
			s.fail(fmt.Errorf("gpu: kernel %q pc %d: shared access %#x+%d outside block's %d bytes",
				k.Name, w.pc, rel, in.Size, b.sharedSize))
			continue
		}
		tile := uint64(b.sharedBase) + rel
		tileAddrs = append(tileAddrs, tile)
		if err := s.sharedLane(in, ln, tile); err != nil {
			s.fail(err)
			continue
		}
		ev.Lanes = append(ev.Lanes, LaneAccess{
			Lane:      l,
			Tid:       w.tidOf(l),
			GTid:      b.id*b.dim + w.tidOf(l),
			Addr:      tile,
			Size:      in.Size,
			AtomicSig: ln.sig,
			InCrit:    ln.critDepth > 0,
			Arrival:   cycle,
		})
	}
	s.scratch.addrs = tileAddrs

	switch in.Op {
	case isa.OpLd:
		st.SharedReads += int64(len(ev.Lanes))
	case isa.OpSt:
		st.SharedWrites += int64(len(ev.Lanes))
	case isa.OpAtom:
		st.SharedAtomics += int64(len(ev.Lanes))
	}

	conflicts := s.shared.ConflictCyclesFor(tileAddrs)
	lat := s.dev.cfg.SharedLatency + conflicts - 1
	if in.Op == isa.OpAtom {
		lat += conflicts // read-modify-write pass
	}
	stall := s.dev.detector.WarpMem(ev)
	st.DetectorStall += stall
	w.readyAt = cycle + s.dev.issueInterval + lat + stall
}

// sharedLane applies the functional effect of one lane's shared access.
func (s *sm) sharedLane(in *isa.Instr, ln *lane, tile uint64) error {
	m := s.shared.Mem
	switch in.Op {
	case isa.OpLd:
		return loadReg(m, in, ln, tile)
	case isa.OpSt:
		return storeReg(m, in, ln, tile)
	case isa.OpAtom:
		return atomicApply(m, in, ln, tile)
	}
	return nil
}

// indexOf returns the index of key in list, or -1. It tries hint
// first: consecutive lanes usually share a segment.
func indexOf(list []uint64, key uint64, hint int) int {
	if uint(hint) < uint(len(list)) && list[hint] == key {
		return hint
	}
	for i, v := range list {
		if v == key {
			return i
		}
	}
	return -1
}

// globalInstr handles device-memory accesses (global and local
// spaces): coalescing, L1, interconnect, partitions, and the global
// RDU event for global-space accesses.
func (s *sm) globalInstr(w *warp, in *isa.Instr, execMask uint64, cycle int64, k *Kernel, st *LaunchStats, local bool) {
	dev := s.dev
	b := w.block
	sc := &s.scratch

	active, addrs := sc.active[:0], sc.addrs[:0]
	for l := range w.lanes {
		if execMask&(1<<uint(l)) == 0 {
			continue
		}
		a := w.lanes[l].regs[in.SrcA] + uint64(in.Imm)
		if local {
			gtid := uint64(b.id*b.dim + w.tidOf(l))
			a = dev.localBase + gtid*uint64(dev.cfg.LocalBytesPerThread) + a
		}
		active = append(active, l)
		addrs = append(addrs, a)
	}
	sc.active, sc.addrs = active, addrs
	if len(addrs) == 0 {
		w.readyAt = cycle + dev.issueInterval
		return
	}

	// Functional effect, in lane order (atomics thereby serialize
	// deterministically within the warp).
	for i, addr := range addrs {
		ln := &w.lanes[active[i]]
		var err error
		switch in.Op {
		case isa.OpLd:
			err = loadReg(dev.Global, in, ln, addr)
		case isa.OpSt:
			err = storeReg(dev.Global, in, ln, addr)
		case isa.OpAtom:
			err = atomicApply(dev.Global, in, ln, addr)
		}
		if err != nil {
			s.fail(fmt.Errorf("gpu: kernel %q pc %d: %w", k.Name, w.pc, err))
		}
	}

	if local {
		st.LocalAccesses += int64(len(addrs))
	} else {
		switch in.Op {
		case isa.OpLd:
			st.GlobalReads += int64(len(addrs))
		case isa.OpSt:
			st.GlobalWrites += int64(len(addrs))
		case isa.OpAtom:
			st.GlobalAtomics += int64(len(addrs))
		}
		b.globalSinceBar = true
	}

	// Timing. Atomics issue one partition transaction per unique
	// address; loads/stores coalesce into segments.
	//
	// Accesses inside a critical section behave as volatile (bypass
	// the non-coherent L1): correct GPU lock code must declare the
	// protected data volatile or it breaks under L1 caching, as the
	// paper's Section IV-B discussion notes.
	volatileCS := true
	for _, l := range active {
		if w.lanes[l].critDepth == 0 {
			volatileCS = false
			break
		}
	}
	seg := dev.cfg.SegmentBytes
	issueDone := cycle + dev.issueInterval
	maxDone := issueDone
	info := sc.info[:0]

	if in.Op == isa.OpAtom {
		uniq := sc.lines[:0]
		for _, addr := range addrs {
			if j := indexOf(uniq, addr, len(uniq)-1); j >= 0 {
				if info[j].done > maxDone {
					maxDone = info[j].done
				}
				continue
			}
			lineAddr := addr &^ uint64(seg-1)
			s.l1.Invalidate(lineAddr) // atomics operate at the partition
			part := dev.PartitionFor(addr)
			arrive := dev.net.Send(part, cycle+1, 8)
			l2done := dev.parts[part].Access(arrive, lineAddr, true, true, false)
			done := dev.net.Reply(part, l2done, 8)
			uniq = append(uniq, addr)
			info = append(info, lineInfo{arr: arrive, done: done})
			if done > maxDone {
				maxDone = done
			}
		}
		sc.lines = uniq
		w.readyAt = maxDone
	} else {
		write := in.Op == isa.OpSt
		sc.lines = mem.Coalesce(sc.lines[:0], addrs, int(in.Size), seg)
		for _, line := range sc.lines {
			part := dev.PartitionFor(line)
			if volatileCS && !write {
				s.l1.Invalidate(line) // volatile load: straight to L2
				arrive := dev.net.Send(part, cycle+dev.cfg.L1Latency, 0)
				l2done := dev.parts[part].Access(arrive, line, false, false, false)
				done := dev.net.Reply(part, l2done, seg)
				info = append(info, lineInfo{arr: arrive})
				if done > maxDone {
					maxDone = done
				}
				continue
			}
			res := s.l1.Access(line, write, cycle)
			if write {
				// Write-through, no-allocate: the store always goes to
				// the partition; it does not block the warp.
				arrive := dev.net.Send(part, cycle+1, seg)
				done := dev.parts[part].Access(arrive, line, true, false, false)
				info = append(info, lineInfo{hit: res.Hit, arr: arrive})
				if done > w.storeDone {
					w.storeDone = done
				}
				continue
			}
			if res.Hit {
				done := cycle + dev.cfg.L1Latency
				li := lineInfo{hit: true, arr: done}
				if f, ok := s.l1.FillStamp(line); ok {
					li.fill = f
				}
				info = append(info, li)
				if done > maxDone {
					maxDone = done
				}
				continue
			}
			// MSHR merge: an in-flight fill of the same line serves
			// this miss too, without a duplicate transaction.
			if fill, inflight := s.mshr[line]; inflight && fill > cycle {
				info = append(info, lineInfo{arr: fill})
				if fill > maxDone {
					maxDone = fill
				}
				continue
			}
			arrive := dev.net.Send(part, cycle+dev.cfg.L1Latency, 0)
			l2done := dev.parts[part].Access(arrive, line, false, false, false)
			done := dev.net.Reply(part, l2done, seg)
			s.mshr[line] = done
			if len(s.mshr) > 4*dev.cfg.MaxThreadsPerSM {
				for l, f := range s.mshr {
					if f <= cycle {
						delete(s.mshr, l)
					}
				}
			}
			info = append(info, lineInfo{arr: arrive})
			if done > maxDone {
				maxDone = done
			}
		}
		if write {
			w.readyAt = issueDone
		} else {
			w.readyAt = maxDone
		}
	}
	sc.info = info

	if local {
		return // per-thread memory cannot race
	}

	// Race-detection event: one lane access per active lane, carrying
	// the metadata the paper's request packets transport. Each lane
	// reports the transaction of its first byte: its segment, or for
	// atomics its address; both are always in sc.lines.
	ev := s.event(w, in, isa.SpaceGlobal, cycle, k)
	j := 0
	for i, addr := range addrs {
		l := active[i]
		ln := &w.lanes[l]
		key := addr
		if in.Op != isa.OpAtom {
			key = addr &^ uint64(seg-1)
		}
		j = indexOf(sc.lines, key, j)
		li := info[j]
		ev.Lanes = append(ev.Lanes, LaneAccess{
			Lane:      l,
			Tid:       w.tidOf(l),
			GTid:      b.id*b.dim + w.tidOf(l),
			Addr:      addr,
			Size:      in.Size,
			AtomicSig: ln.sig,
			InCrit:    ln.critDepth > 0,
			L1Hit:     li.hit,
			L1Fill:    li.fill,
			Arrival:   li.arr,
		})
	}
	stall := dev.detector.WarpMem(ev)
	st.DetectorStall += stall
	if stall > 0 {
		w.readyAt += stall
	}
}

// loadReg performs a lane load into the destination register.
func loadReg(m *mem.Memory, in *isa.Instr, ln *lane, addr uint64) error {
	if in.Float && in.Size == 4 {
		f, err := m.LoadF32(addr)
		if err != nil {
			return err
		}
		ln.regs[in.Dst] = math.Float64bits(f)
		return nil
	}
	v, err := m.Load(addr, int(in.Size))
	if err != nil {
		return err
	}
	ln.regs[in.Dst] = v
	return nil
}

// storeReg performs a lane store from the source register.
func storeReg(m *mem.Memory, in *isa.Instr, ln *lane, addr uint64) error {
	if in.Float && in.Size == 4 {
		return m.StoreF32(addr, math.Float64frombits(ln.regs[in.SrcB]))
	}
	return m.Store(addr, int(in.Size), ln.regs[in.SrcB])
}

// atomicApply performs the read-modify-write of an atomic for one
// lane; the old value lands in the destination register.
func atomicApply(m *mem.Memory, in *isa.Instr, ln *lane, addr uint64) error {
	old, err := m.Load(addr, int(in.Size))
	if err != nil {
		return err
	}
	bOp := ln.regs[in.SrcB]
	cOp := ln.regs[in.SrcC]
	var nv uint64
	switch in.AOp {
	case isa.AtomAdd:
		nv = old + bOp
	case isa.AtomInc:
		if old >= bOp {
			nv = 0
		} else {
			nv = old + 1
		}
	case isa.AtomExch:
		nv = bOp
	case isa.AtomCAS:
		if old == bOp {
			nv = cOp
		} else {
			nv = old
		}
	case isa.AtomMin:
		nv = old
		if int64(bOp) < int64(old) {
			nv = bOp
		}
	case isa.AtomMax:
		nv = old
		if int64(bOp) > int64(old) {
			nv = bOp
		}
	}
	if err := m.Store(addr, int(in.Size), nv); err != nil {
		return err
	}
	ln.regs[in.Dst] = old
	return nil
}
