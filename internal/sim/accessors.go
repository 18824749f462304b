package sim

import "fmt"

// Reg reads integer register r of (core, warp, lane). Intended for tests,
// debuggers and the host runtime; not part of the timed machine.
func (s *Sim) Reg(core, warp, lane int, r uint8) (uint32, error) {
	w, err := s.warpAt(core, warp)
	if err != nil {
		return 0, err
	}
	if lane < 0 || lane >= s.cfg.Threads || r > 31 {
		return 0, fmt.Errorf("sim: bad lane %d or register %d", lane, r)
	}
	if len(w.regs) != 32*s.cfg.Threads {
		return 0, nil // never activated under this shape
	}
	return w.regs[int(r)*s.cfg.Threads+lane], nil
}

// FReg reads float register r (as IEEE-754 bits) of (core, warp, lane).
func (s *Sim) FReg(core, warp, lane int, r uint8) (uint32, error) {
	w, err := s.warpAt(core, warp)
	if err != nil {
		return 0, err
	}
	if lane < 0 || lane >= s.cfg.Threads || r > 31 {
		return 0, fmt.Errorf("sim: bad lane %d or register %d", lane, r)
	}
	if len(w.fregs) != 32*s.cfg.Threads {
		return 0, nil // never activated under this shape
	}
	return w.fregs[int(r)*s.cfg.Threads+lane], nil
}

// WarpActive reports whether (core, warp) is currently active.
func (s *Sim) WarpActive(core, warp int) (bool, error) {
	w, err := s.warpAt(core, warp)
	if err != nil {
		return false, err
	}
	return w.active, nil
}

// WarpPC returns the current pc of (core, warp).
func (s *Sim) WarpPC(core, warp int) (uint32, error) {
	w, err := s.warpAt(core, warp)
	if err != nil {
		return 0, err
	}
	return w.pc, nil
}

// WarpTMask returns the current thread mask of (core, warp).
func (s *Sim) WarpTMask(core, warp int) (uint64, error) {
	w, err := s.warpAt(core, warp)
	if err != nil {
		return 0, err
	}
	return w.tmask, nil
}

func (s *Sim) warpAt(core, warp int) (*warp, error) {
	if core < 0 || core >= s.cfg.Cores || warp < 0 || warp >= s.cfg.Warps {
		return nil, fmt.Errorf("sim: warp (%d,%d) outside %s", core, warp, s.cfg.Name())
	}
	return &s.cores[core].warps[warp], nil
}
