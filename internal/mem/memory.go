// Package mem models the GPGPU memory system: a flat little-endian device
// memory, set-associative write-back caches (a private L1 per core and a
// shared L2), a DRAM model with fixed latency and finite bandwidth, and the
// per-warp access coalescer.
//
// The caches are functional-timing only: data always lives in the flat
// memory (the simulator is sequentially consistent at instruction issue) and
// the hierarchy computes completion cycles and hit/miss statistics.
package mem

import (
	"encoding/binary"
	"fmt"
)

// pageShift sizes the dirty-tracking granule (4 KiB pages): small enough
// that a task touching a few buffers clears a few pages, large enough that
// the flag array of a multi-megabyte image is a few hundred bytes.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// Memory is the flat device memory. Addresses are byte addresses from 0 to
// Size()-1; all accesses are bounds-checked.
type Memory struct {
	data []byte
	init uint32 // size at construction, restored by Reset
	// dirty holds one flag per page of data, set by every store, so Reset
	// clears what was written instead of the whole grown image. Invariant:
	// a byte of the backing array is non-zero only inside a dirty page
	// below len(data) — which also keeps every byte beyond len zero, the
	// property Grow's reslice relies on.
	dirty []bool
}

// NewMemory allocates a device memory of size bytes.
func NewMemory(size uint32) *Memory {
	return &Memory{data: make([]byte, size), init: size, dirty: make([]bool, pages(size))}
}

// pages returns the number of dirty-tracking pages covering size bytes.
func pages(size uint32) int { return int((uint64(size) + pageSize - 1) >> pageShift) }

// mark flags the pages of the in-bounds store [addr, addr+n), n > 0.
func (m *Memory) mark(addr, n uint32) {
	for p, last := addr>>pageShift, (addr+n-1)>>pageShift; p <= last; p++ {
		m.dirty[p] = true
	}
}

// Reset zeroes the memory and restores its construction-time size, keeping
// the grown backing array so a pooled device reuses the allocation. Only
// the pages a store touched since the last Reset are cleared, so the cost
// follows what the run wrote, not how far the image grew. After Reset the
// memory is indistinguishable from a freshly constructed one — for stores
// anywhere in bounds, stray ones included.
func (m *Memory) Reset() {
	for p, d := range m.dirty {
		if d {
			lo := p << pageShift
			clear(m.data[lo:min(lo+pageSize, len(m.data))])
			m.dirty[p] = false
		}
	}
	m.data = m.data[:m.init]
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint32 { return uint32(len(m.data)) }

// Grow extends the memory to at least size bytes, preserving contents.
// Capacity grows geometrically so that a sequence of allocations (the
// buffer allocator calls Grow per Alloc) copies the existing contents
// O(log n) times instead of once per call.
func (m *Memory) Grow(size uint32) {
	if size <= m.Size() {
		return
	}
	if n := pages(size); n > len(m.dirty) {
		m.dirty = append(m.dirty, make([]bool, n-len(m.dirty))...)
	}
	if uint32(cap(m.data)) >= size {
		// Every byte of the backing array beyond len is zero (fresh from
		// the allocator, or cleared by Reset before it shrank len), so
		// reslicing is equivalent to growing into fresh memory.
		m.data = m.data[:size]
		return
	}
	newCap := uint64(cap(m.data)) * 2
	if newCap > 1<<32-1 {
		newCap = 1<<32 - 1
	}
	if newCap < uint64(size) {
		newCap = uint64(size)
	}
	bigger := make([]byte, size, newCap)
	copy(bigger, m.data)
	m.data = bigger
}

// InBounds reports whether [addr, addr+n) lies inside the memory.
func (m *Memory) InBounds(addr, n uint32) bool {
	return n <= uint32(len(m.data)) && addr <= uint32(len(m.data))-n
}

// Read32 loads a little-endian 32-bit word.
func (m *Memory) Read32(addr uint32) (uint32, bool) {
	if !m.InBounds(addr, 4) {
		return 0, false
	}
	return binary.LittleEndian.Uint32(m.data[addr:]), true
}

// Write32 stores a little-endian 32-bit word.
func (m *Memory) Write32(addr, v uint32) bool {
	if !m.InBounds(addr, 4) {
		return false
	}
	m.mark(addr, 4)
	binary.LittleEndian.PutUint32(m.data[addr:], v)
	return true
}

// Read16 loads a little-endian 16-bit halfword.
func (m *Memory) Read16(addr uint32) (uint16, bool) {
	if !m.InBounds(addr, 2) {
		return 0, false
	}
	return binary.LittleEndian.Uint16(m.data[addr:]), true
}

// Write16 stores a little-endian 16-bit halfword.
func (m *Memory) Write16(addr uint32, v uint16) bool {
	if !m.InBounds(addr, 2) {
		return false
	}
	m.mark(addr, 2)
	binary.LittleEndian.PutUint16(m.data[addr:], v)
	return true
}

// Read8 loads a byte.
func (m *Memory) Read8(addr uint32) (uint8, bool) {
	if !m.InBounds(addr, 1) {
		return 0, false
	}
	return m.data[addr], true
}

// Write8 stores a byte.
func (m *Memory) Write8(addr uint32, v uint8) bool {
	if !m.InBounds(addr, 1) {
		return false
	}
	m.mark(addr, 1)
	m.data[addr] = v
	return true
}

// WriteBytes copies b into memory at addr.
func (m *Memory) WriteBytes(addr uint32, b []byte) error {
	if !m.InBounds(addr, uint32(len(b))) {
		return fmt.Errorf("mem: write of %d bytes at %#x out of bounds (size %#x)", len(b), addr, m.Size())
	}
	if len(b) > 0 {
		m.mark(addr, uint32(len(b)))
		copy(m.data[addr:], b)
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
	copy(out, m.data[addr:])
	return out, nil
}

// ReadBytesInto copies len(dst) bytes starting at addr into dst, the
// allocation-free variant of ReadBytes for caller-pooled buffers.
func (m *Memory) ReadBytesInto(dst []byte, addr uint32) error {
	if !m.InBounds(addr, uint32(len(dst))) {
		return fmt.Errorf("mem: read of %d bytes at %#x out of bounds (size %#x)", len(dst), addr, m.Size())
	}
	copy(dst, m.data[addr:])
	return nil
}

// ReadWords loads len(dst) consecutive little-endian 32-bit words starting
// at addr into dst — one bounds check for the whole span, the bulk path of a
// unit-stride warp load into a register-major register row. len(dst) must
// be small enough that len(dst)*4 does not overflow uint32 (callers pass
// lane counts).
func (m *Memory) ReadWords(addr uint32, dst []uint32) bool {
	n := uint32(len(dst)) * 4
	if n == 0 || !m.InBounds(addr, n) {
		return false
	}
	src := m.data[addr : addr+n]
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(src[i*4:])
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
	m.mark(addr, n)
	dst := m.data[addr : addr+n]
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[i*4:], v)
	}
	return true
}
