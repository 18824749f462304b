package sim

import "slices"

// Program-sized warp state. A warp's register file and scoreboard hold one
// row per scoreboard slot (x0-x31, f0-f31) that a program loaded since the
// last Reset or Reshape names, not one per architectural register: the
// registry kernels name 23-29 of the 64. Row r of a warp is
// regs[r*Threads : (r+1)*Threads] and pend[r].
//
// The layout only grows between Resets — a newly named slot takes the next
// row, a named one keeps its row — so a decoded record stays valid for as
// long as its program is resident, and a warp activated under a smaller
// layout addresses the same rows under a larger one.

// remap names d's registers in the layout and rewrites each field from its
// scoreboard slot to the slot's row.
func (s *Sim) remap(d *decoded) {
	for i, slot := range d.slots {
		d.slots[i] = s.rowFor(slot)
	}
	d.dst, d.rs1, d.rs2, d.rs3 = s.rowFor(d.dst), s.rowFor(d.rs1), s.rowFor(d.rs2), s.rowFor(d.rs3)
}

// rowFor returns slot's row, giving the slot the next row if no loaded
// program has named it yet. x0 is row 0.
func (s *Sim) rowFor(slot uint8) uint8 {
	if slot != 0 && s.rowOf[slot] == 0 {
		s.rowOf[slot] = uint8(s.nrows)
		s.nrows++
	}
	return s.rowOf[slot]
}

// fitRows extends w's register file and scoreboard to the layout's rows,
// keeping the rows it has and zeroing the rows it adds.
func (s *Sim) fitRows(w *warp) {
	rows, words := len(w.pend), len(w.regs)
	w.regs = slices.Grow(w.regs, s.nrows*s.cfg.Threads-words)[:s.nrows*s.cfg.Threads]
	w.pend = slices.Grow(w.pend, s.nrows-rows)[:s.nrows]
	clear(w.regs[words:])
	clear(w.pend[rows:])
}

// growActive fits every active warp to a layout a program load just grew,
// so a warp still running an earlier program reads the new rows as 0.
// Inactive warps are fitted when they are next activated.
func (s *Sim) growActive() {
	for i := range s.cores {
		c := &s.cores[i]
		if c.active == 0 {
			continue
		}
		for j := range c.warps {
			if w := &c.warps[j]; w.active {
				s.fitRows(w)
			}
		}
	}
}

// resetLayout drops the layout to x0's row alone.
func (s *Sim) resetLayout() {
	s.rowOf = [64]uint8{}
	s.nrows = 1
}
