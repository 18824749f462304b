// Package mem models the GPGPU memory system: a paged little-endian device
// memory, set-associative write-back caches (a private L1 per core and a
// shared L2), a DRAM model with fixed latency and finite bandwidth, and the
// per-warp access coalescer.
//
// The caches are functional-timing only: data always lives in the device
// memory (the simulator is sequentially consistent at instruction issue) and
// the hierarchy computes completion cycles and hit/miss statistics.
package mem

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// pageShift sizes the pages (4 KiB): small enough that a task pays only for
// the buffers it writes, large enough that the page table of a
// multi-megabyte image is a few kilobytes.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page = [pageSize]byte

// zeroPage backs every page no store has touched. It is shared by all
// memories and never written, so reads need no test for an absent page.
var zeroPage = new(page)

// Memory is the device memory: a table of 4 KiB pages. Addresses are byte
// addresses from 0 to Size()-1; all accesses are bounds-checked. A page
// holds memory of its own only once a store reaches it, so a memory costs
// what its tasks write, not how far it has grown. Aligned accesses never
// cross a page; spans and unaligned accesses are split at page boundaries.
type Memory struct {
	// pages maps page number to page, zeroPage until a store owns it.
	// Invariant: an owned page is non-zero only below size.
	pages []*page
	free  []*page // zeroed pages released by Reset, reused before allocating
	size  uint32
	init  uint32 // size at construction, restored by Reset
}

// NewMemory returns a zeroed device memory of size bytes.
func NewMemory(size uint32) *Memory {
	m := &Memory{init: size}
	m.Grow(size)
	return m
}

// Reset zeroes the memory and restores its construction-time size. Each
// owned page is cleared and kept on the free list, so a pooled device
// replays a task without allocating and the cost follows what the run
// wrote, not how far the memory grew. After Reset the memory is
// indistinguishable from a freshly constructed one.
func (m *Memory) Reset() {
	for i, p := range m.pages {
		if p != zeroPage {
			clear(p[:])
			m.free = append(m.free, p)
			m.pages[i] = zeroPage
		}
	}
	m.pages = m.pages[:(uint64(m.init)+pageMask)>>pageShift]
	m.size = m.init
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint32 { return m.size }

// Grow extends the memory to at least size bytes, preserving contents. The
// new pages are the zero page, so growing copies and clears nothing.
func (m *Memory) Grow(size uint32) {
	if size <= m.size {
		return
	}
	n := int((uint64(size) + pageMask) >> pageShift)
	m.pages = slices.Grow(m.pages, n-len(m.pages))
	for len(m.pages) < n {
		m.pages = append(m.pages, zeroPage)
	}
	m.size = size
}

// own returns the page holding addr for writing, taking a zeroed page for
// it, from the free list or new, if it is still the zero page.
func (m *Memory) own(addr uint32) *page {
	i := addr >> pageShift
	if p := m.pages[i]; p != zeroPage {
		return p
	}
	var p *page
	if n := len(m.free); n > 0 {
		p, m.free = m.free[n-1], m.free[:n-1]
	} else {
		p = new(page)
	}
	m.pages[i] = p
	return p
}

// InBounds reports whether [addr, addr+n) lies inside the memory.
func (m *Memory) InBounds(addr, n uint32) bool {
	return n <= m.size && addr <= m.size-n
}

// writeSplit stores the low n bytes of v at the in-bounds addr byte by byte.
func (m *Memory) writeSplit(addr, n, v uint32) {
	for i := range n {
		m.own(addr + i)[(addr+i)&pageMask] = byte(v >> (8 * i))
	}
}

// Read32 loads a little-endian 32-bit word. A word that crosses a page is
// read byte by byte, in a loop short enough to keep Read32 inlinable.
func (m *Memory) Read32(addr uint32) (v uint32, ok bool) {
	if !m.InBounds(addr, 4) {
		return 0, false
	}
	if off := addr & pageMask; off <= pageSize-4 {
		return binary.LittleEndian.Uint32(m.pages[addr>>pageShift][off:]), true
	}
	for i := range uint32(4) {
		a := addr + i
		v |= uint32(m.pages[a>>pageShift][a&pageMask]) << (8 * i)
	}
	return v, true
}

// Write32 stores a little-endian 32-bit word.
func (m *Memory) Write32(addr, v uint32) bool {
	if !m.InBounds(addr, 4) {
		return false
	}
	if off := addr & pageMask; off <= pageSize-4 {
		binary.LittleEndian.PutUint32(m.own(addr)[off:], v)
	} else {
		m.writeSplit(addr, 4, v)
	}
	return true
}

// Read16 loads a little-endian 16-bit halfword, as Read32 does.
func (m *Memory) Read16(addr uint32) (v uint16, ok bool) {
	if !m.InBounds(addr, 2) {
		return 0, false
	}
	if off := addr & pageMask; off <= pageSize-2 {
		return binary.LittleEndian.Uint16(m.pages[addr>>pageShift][off:]), true
	}
	for i := range uint32(2) {
		a := addr + i
		v |= uint16(m.pages[a>>pageShift][a&pageMask]) << (8 * i)
	}
	return v, true
}

// Write16 stores a little-endian 16-bit halfword.
func (m *Memory) Write16(addr uint32, v uint16) bool {
	if !m.InBounds(addr, 2) {
		return false
	}
	if off := addr & pageMask; off <= pageSize-2 {
		binary.LittleEndian.PutUint16(m.own(addr)[off:], v)
	} else {
		m.writeSplit(addr, 2, uint32(v))
	}
	return true
}

// Read8 loads a byte.
func (m *Memory) Read8(addr uint32) (uint8, bool) {
	if !m.InBounds(addr, 1) {
		return 0, false
	}
	return m.pages[addr>>pageShift][addr&pageMask], true
}

// Write8 stores a byte.
func (m *Memory) Write8(addr uint32, v uint8) bool {
	if !m.InBounds(addr, 1) {
		return false
	}
	m.own(addr)[addr&pageMask] = v
	return true
}

// WriteBytes copies b into memory at addr.
func (m *Memory) WriteBytes(addr uint32, b []byte) error {
	if !m.InBounds(addr, uint32(len(b))) {
		return fmt.Errorf("mem: write of %d bytes at %#x out of bounds (size %#x)", len(b), addr, m.Size())
	}
	for len(b) > 0 {
		n := copy(m.own(addr)[addr&pageMask:], b)
		b, addr = b[n:], addr+uint32(n)
	}
	return nil
}

// ReadBytes copies n bytes starting at addr into a fresh slice. Hot
// callers that read repeatedly should use ReadBytesInto with a reused
// buffer instead.
func (m *Memory) ReadBytes(addr, n uint32) ([]byte, error) {
	if !m.InBounds(addr, n) {
		return nil, fmt.Errorf("mem: read of %d bytes at %#x out of bounds (size %#x)", n, addr, m.Size())
	}
	out := make([]byte, n)
	return out, m.ReadBytesInto(out, addr)
}

// ReadBytesInto copies len(dst) bytes starting at addr into dst, the
// allocation-free variant of ReadBytes for caller-pooled buffers.
func (m *Memory) ReadBytesInto(dst []byte, addr uint32) error {
	if !m.InBounds(addr, uint32(len(dst))) {
		return fmt.Errorf("mem: read of %d bytes at %#x out of bounds (size %#x)", len(dst), addr, m.Size())
	}
	for len(dst) > 0 {
		n := copy(dst, m.pages[addr>>pageShift][addr&pageMask:])
		dst, addr = dst[n:], addr+uint32(n)
	}
	return nil
}

// ReadWords loads len(dst) consecutive little-endian 32-bit words starting
// at addr into dst — one bounds check for the whole span, the bulk path of a
// unit-stride warp load into a register-major register row. A span that
// crosses a page is read word by word. len(dst) must be small enough that
// len(dst)*4 does not overflow uint32 (callers pass lane counts).
func (m *Memory) ReadWords(addr uint32, dst []uint32) bool {
	n := uint32(len(dst)) * 4
	if n == 0 || !m.InBounds(addr, n) {
		return false
	}
	if off := addr & pageMask; n <= pageSize-off {
		src := m.pages[addr>>pageShift][off : off+n]
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint32(src[i*4:])
		}
		return true
	}
	for i := range dst {
		dst[i], _ = m.Read32(addr + uint32(i)*4)
	}
	return true
}

// WriteWords stores the words of src to consecutive addresses starting at
// addr — the store half of the bulk path.
func (m *Memory) WriteWords(addr uint32, src []uint32) bool {
	n := uint32(len(src)) * 4
	if n == 0 || !m.InBounds(addr, n) {
		return false
	}
	if off := addr & pageMask; n <= pageSize-off {
		dst := m.own(addr)[off : off+n]
		for i, v := range src {
			binary.LittleEndian.PutUint32(dst[i*4:], v)
		}
		return true
	}
	for i, v := range src {
		m.Write32(addr+uint32(i)*4, v)
	}
	return true
}
