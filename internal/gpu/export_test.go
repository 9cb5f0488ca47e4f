package gpu

import "fmt"

// StepWarp prepares a launch of k with its first block placed on SM 0
// and returns a function that executes the instruction at pc for that
// block's warp 0, as the scheduler would, each call at a later cycle.
// Tests use it to measure one warp instruction in isolation.
func (d *Device) StepWarp(k *Kernel) (step func(pc int), err error) {
	if err := k.Validate(&d.cfg); err != nil {
		return nil, err
	}
	d.launch = k
	d.nextBlock = 0
	d.blocksLeft = k.GridDim
	d.now = 0
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
