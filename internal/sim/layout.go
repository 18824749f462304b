package sim

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
//
// Register arena. The rows are windows carved from one arena per Sim: two
// lists of fixed-size chunks (register words and completion cycles), each
// carved front to back, a window never spanning two chunks. An activation
// zeroes the warp's window when it already has the layout's rows (a warp
// vx_wspawn restarts within one Run), and otherwise carves a zeroed window
// of nrows × Threads words and nrows completions. All of a launch's warps
// retire before a Run that returns nil, so such a Run marks the arena
// spent and the next activation recycles it: the cursors rewind and every
// warp's window is emptied. Reset recycles too. An active warp that a
// program load adds rows under is carved a new window and its rows are
// copied over; chunks never move, so no other window is touched.

const (
	// regChunkWords is 32 KiB of register words: two of the widest
	// windows, 64 rows × 64 threads.
	regChunkWords = 8192
	// pendChunkRows is 8 KiB of completion cycles.
	pendChunkRows = 1024
)

// regArena holds every warp's register and scoreboard windows.
type regArena struct {
	regs  chunks[uint32]
	pend  chunks[uint64]
	spent bool // every window belongs to retired warps: the next activation recycles
}

// chunks is a list of equal-size chunks carved front to back from the
// cursor (cur, off).
type chunks[T any] struct {
	list     [][]T
	cur, off int
}

// carve returns a window of n elements from chunks of size elements,
// moving to the next chunk, or allocating it, when the current one cannot
// hold n more. A recycled window holds whatever it last held.
func (a *chunks[T]) carve(n, size int) []T {
	if a.cur < len(a.list) && a.off+n > size {
		a.cur, a.off = a.cur+1, 0
	}
	if a.cur == len(a.list) {
		a.list = append(a.list, make([]T, size))
	}
	w := a.list[a.cur][a.off : a.off+n : a.off+n]
	a.off += n
	return w
}

// rewind makes every chunk free again.
func (a *chunks[T]) rewind() { a.cur, a.off = 0, 0 }

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

// carve gives w a new zeroed window of the layout's rows.
func (s *Sim) carve(w *warp) {
	w.regs = s.arena.regs.carve(s.nrows*s.cfg.Threads, regChunkWords)
	w.pend = s.arena.pend.carve(s.nrows, pendChunkRows)
	clear(w.regs)
	clear(w.pend)
}

// growActive re-carves every active warp under a layout a program load just
// grew, so a warp still running an earlier program reads the new rows as 0.
// Inactive warps get the layout's rows when they are next activated.
func (s *Sim) growActive() {
	for i := range s.cores {
		c := &s.cores[i]
		if c.active == 0 {
			continue
		}
		for j := range c.warps {
			if w := &c.warps[j]; w.active {
				// Rows keep their offsets, so the old rows copy as one.
				regs, pend := w.regs, w.pend
				s.carve(w)
				copy(w.regs, regs)
				copy(w.pend, pend)
			}
		}
	}
}

// recycle rewinds the arena and every warp: each is left inactive with an
// empty window, so a warp not activated since reads 0 everywhere. Only
// Reset, or an activation after every warp has retired, may call it.
func (s *Sim) recycle() {
	s.arena.regs.rewind()
	s.arena.pend.rewind()
	s.arena.spent = false
	for i := range s.cores {
		for j := range s.cores[i].warps {
			w := &s.cores[i].warps[j]
			w.active, w.barWait, w.last = false, false, 0
			w.regs, w.pend = w.regs[:0], w.pend[:0]
		}
	}
}

// resetLayout drops the layout to x0's row alone.
func (s *Sim) resetLayout() {
	s.rowOf = [64]uint8{}
	s.nrows = 1
}
