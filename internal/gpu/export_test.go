package gpu

import (
	"context"
	"fmt"
	"math"
)

// StepWarp prepares a launch of k with its first block placed on SM 0
// and returns a function that executes the instruction at pc for that
// block's warp 0, as the scheduler would, each call at a later cycle.
// Tests use it to measure one warp instruction in isolation.
func (d *Device) StepWarp(k *Kernel) (step func(pc int), err error) {
	if err := k.Validate(&d.cfg); err != nil {
		return nil, err
	}
	d.resetLaunch(k)
	d.detector.KernelStart(d, k.Name)
	s := d.sms[0]
	d.placeNext(s, 0)
	w := s.warps[0]
	st := &LaunchStats{Kernel: k.Name}
	cycle := int64(0)
	return func(pc int) {
		cycle += 1000
		w.pc, w.state, w.readyAt = pc, warpReady, cycle
		s.exec(w, cycle, k, st)
		if s.pendingErr != nil {
			panic(fmt.Sprintf("step pc %d: %v", pc, s.pendingErr))
		}
	}, nil
}

// LaunchRef is LaunchContext driven by the reference scheduler loop:
// every step rescans every warp of every SM for the earliest ready
// cycle, then offers that cycle to every SM in index order. It is the
// oracle the event-driven loop in schedule must match exactly.
func (d *Device) LaunchRef(ctx context.Context, k *Kernel, lim LaunchLimits) (*LaunchStats, error) {
	st, err := d.startLaunch(ctx, k)
	if err != nil {
		return nil, err
	}
	var iter int64
	for d.blocksLeft > 0 {
		iter++
		if iter%watchdogStride == 0 {
			if err := ctx.Err(); err != nil {
				return d.finalize(st, k), d.hangError(k, HangCanceled, err)
			}
		}
		next := int64(math.MaxInt64)
		for _, s := range d.sms {
			if t := s.earliestReady(); t < next {
				next = t
			}
		}
		if next == math.MaxInt64 {
			return d.finalize(st, k), d.hangError(k, HangDeadlock, nil)
		}
		if lim.MaxCycles > 0 && next > lim.MaxCycles {
			return d.finalize(st, k), d.hangError(k, HangCycleBudget, nil)
		}
		d.now = next
		for _, s := range d.sms {
			if len(s.warps) > 0 && s.issueFree <= next {
				st.IssueSlots++
			}
			s.issue(next, k, st)
			if s.pendingErr != nil {
				return d.finalize(st, k), s.pendingErr
			}
		}
	}
	d.detector.KernelEnd()
	return d.finalize(st, k), nil
}
