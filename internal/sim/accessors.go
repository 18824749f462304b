package sim

import "fmt"

// Reg reads integer register r of (core, warp, lane). Intended for tests,
// debuggers and the host runtime; not part of the timed machine. A warp's
// registers stay readable after the Run that retires it, until the next
// launch's first ActivateWarp recycles the register arena: from then on a
// warp that launch does not activate reads 0, as after Reset.
func (s *Sim) Reg(core, warp, lane int, r uint8) (uint32, error) {
	return s.readReg(core, warp, lane, r, r)
}

// FReg reads float register r (as IEEE-754 bits) of (core, warp, lane).
func (s *Sim) FReg(core, warp, lane int, r uint8) (uint32, error) {
	return s.readReg(core, warp, lane, r, floatSlot(r))
}

// readReg reads the row of scoreboard slot of (core, warp, lane). A register
// no program loaded since the last Reset or Reshape names maps to x0's row,
// which is never written, and a warp not activated since then (or since the
// arena was recycled) has no rows: both read 0, as on a freshly
// constructed Sim.
func (s *Sim) readReg(core, warp, lane int, r, slot uint8) (uint32, error) {
	w, err := s.warpAt(core, warp)
	if err != nil {
		return 0, err
	}
	if lane < 0 || lane >= s.cfg.Threads || r > 31 {
		return 0, fmt.Errorf("sim: bad lane %d or register %d", lane, r)
	}
	if i := int(s.rowOf[slot])*s.cfg.Threads + lane; i < len(w.regs) {
		return w.regs[i], nil
	}
	return 0, nil
}

// WarpActive reports whether (core, warp) is currently active.
func (s *Sim) WarpActive(core, warp int) (bool, error) {
	w, err := s.warpAt(core, warp)
	if err != nil {
		return false, err
	}
	return w.active, nil
}

func (s *Sim) warpAt(core, warp int) (*warp, error) {
	if core < 0 || core >= s.cfg.Cores || warp < 0 || warp >= s.cfg.Warps {
		return nil, fmt.Errorf("sim: warp (%d,%d) outside %s", core, warp, s.cfg.Name())
	}
	return &s.cores[core].warps[warp], nil
}
