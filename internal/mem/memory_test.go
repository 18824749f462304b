package mem

import (
	"bytes"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// flatMemory is the reference model of Memory: one flat byte slice, grown
// by appending zeros and reset by reallocating.
type flatMemory struct {
	data []byte
	init int
}

func (f *flatMemory) inBounds(addr, n uint32) bool {
	return uint64(addr)+uint64(n) <= uint64(len(f.data))
}

func (f *flatMemory) grow(size uint32) {
	if int(size) > len(f.data) {
		f.data = append(f.data, make([]byte, int(size)-len(f.data))...)
	}
}

// write stores the low n bytes of v little-endian at addr.
func (f *flatMemory) write(addr, n, v uint32) bool {
	if !f.inBounds(addr, n) {
		return false
	}
	for i := range n {
		f.data[addr+i] = byte(v >> (8 * i))
	}
	return true
}

// read loads the n-byte little-endian value at addr.
func (f *flatMemory) read(addr, n uint32) (v uint32, ok bool) {
	if !f.inBounds(addr, n) {
		return 0, false
	}
	for i := range n {
		v |= uint32(f.data[addr+i]) << (8 * i)
	}
	return v, true
}

// opStream decodes a fuzz input into operations; it reads zeros once the
// input is spent.
type opStream struct{ b []byte }

func (s *opStream) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *opStream) u32() uint32 {
	return uint32(s.byte()) | uint32(s.byte())<<8 | uint32(s.byte())<<16 | uint32(s.byte())<<24
}

// addr draws an address biased to within 8 bytes of a page boundary, with
// some at the end of the memory (and just past it) and some anywhere.
func (s *opStream) addr(size uint32) uint32 {
	switch s.byte() % 4 {
	case 0, 1:
		p := uint32(s.byte()) % (size>>pageShift + 2)
		return p<<pageShift + uint32(s.byte()%17) - 8
	case 2:
		return size - uint32(s.byte()%12) + 2
	default:
		return s.u32() % (size + 16)
	}
}

// checkMatchesFlat runs the operations ops encodes on a Memory and on the
// flat model side by side, requiring every return value and, after every
// operation, every byte to agree, and the shared zero page to stay zero.
func checkMatchesFlat(t *testing.T, ops []byte) {
	t.Helper()
	const init = 2*pageSize + 100 // ends inside a page
	m, f := NewMemory(init), &flatMemory{data: make([]byte, init), init: init}
	s := &opStream{ops}
	for step := 0; len(s.b) > 0; step++ {
		kind, addr := s.byte()%14, s.addr(m.Size())
		var got, want any
		switch kind {
		case 0: // Grow, by up to three pages, now and then to below the size
			size := m.Size() - pageSize + uint32(s.byte())<<6
			m.Grow(size)
			f.grow(size)
		case 1:
			v := s.byte()
			got, want = m.Write8(addr, v), f.write(addr, 1, uint32(v))
		case 2:
			v := uint16(s.u32())
			got, want = m.Write16(addr, v), f.write(addr, 2, uint32(v))
		case 3:
			v := s.u32()
			got, want = m.Write32(addr, v), f.write(addr, 4, v)
		case 4: // spans of up to two pages and a bit
			b := make([]byte, int(s.byte())<<5+int(s.byte()%32))
			for i := range b {
				b[i] = byte(i) | 1
			}
			ok := f.inBounds(addr, uint32(len(b)))
			if ok {
				copy(f.data[addr:], b)
			}
			got, want = m.WriteBytes(addr, b) == nil, ok
		case 5:
			src := make([]uint32, s.byte()%70)
			for i := range src {
				src[i] = uint32(i)*0x01010101 + 0x80402011
			}
			ok := len(src) > 0 && f.inBounds(addr, uint32(len(src))*4)
			for i, v := range src {
				if ok { // a span out of bounds stores nothing, not its in-bounds words
					f.write(addr+uint32(i)*4, 4, v)
				}
			}
			got, want = m.WriteWords(addr, src), ok
		case 6:
			v, ok := m.Read8(addr)
			w, wok := f.read(addr, 1)
			got, want = [2]any{uint32(v), ok}, [2]any{w, wok}
		case 7:
			v, ok := m.Read16(addr)
			w, wok := f.read(addr, 2)
			got, want = [2]any{uint32(v), ok}, [2]any{w, wok}
		case 8:
			v, ok := m.Read32(addr)
			w, wok := f.read(addr, 4)
			got, want = [2]any{v, ok}, [2]any{w, wok}
		case 9:
			n := uint32(s.byte())<<5 + uint32(s.byte()%32)
			b, err := m.ReadBytes(addr, n)
			got, want = err == nil, f.inBounds(addr, n)
			if err == nil && !bytes.Equal(b, f.data[addr:addr+n]) {
				t.Fatalf("step %d: ReadBytes(%#x, %d) disagrees with the flat model", step, addr, n)
			}
		case 10:
			dst := make([]byte, int(s.byte())<<5+int(s.byte()%32))
			err := m.ReadBytesInto(dst, addr)
			got, want = err == nil, f.inBounds(addr, uint32(len(dst)))
			if err == nil && !bytes.Equal(dst, f.data[addr:addr+uint32(len(dst))]) {
				t.Fatalf("step %d: ReadBytesInto(%#x, %d) disagrees with the flat model", step, addr, len(dst))
			}
		case 11:
			dst := make([]uint32, s.byte()%70)
			ok := m.ReadWords(addr, dst)
			got, want = ok, len(dst) > 0 && f.inBounds(addr, uint32(len(dst))*4)
			for i := range dst {
				if w, _ := f.read(addr+uint32(i)*4, 4); ok && dst[i] != w {
					t.Fatalf("step %d: ReadWords(%#x) word %d = %#x, flat model %#x", step, addr, i, dst[i], w)
				}
			}
		case 12:
			m.Reset()
			f.data = make([]byte, f.init)
		case 13:
			n := uint32(s.byte() % 9)
			got, want = m.InBounds(addr, n), f.inBounds(addr, n)
		}
		if got != want {
			t.Fatalf("step %d: op %d at %#x returned %v, flat model %v", step, kind, addr, got, want)
		}
		if *zeroPage != (page{}) {
			t.Fatalf("step %d: op %d at %#x wrote the shared zero page", step, kind, addr)
		}
		checkImage(t, m, f.data)
	}
}

// checkImage requires m's pages to hold exactly want below the size, zeros
// beyond it, and no more pages than the size needs.
func checkImage(t *testing.T, m *Memory, want []byte) {
	t.Helper()
	if m.Size() != uint32(len(want)) {
		t.Fatalf("Size() = %#x, flat model %#x", m.Size(), len(want))
	}
	if n := (len(want) + pageMask) >> pageShift; len(m.pages) != n {
		t.Fatalf("%d pages for size %#x, want %d", len(m.pages), len(want), n)
	}
	for i, p := range m.pages {
		lo := i << pageShift
		hi := min(lo+pageSize, len(want))
		if !bytes.Equal(p[:hi-lo], want[lo:hi]) {
			t.Fatalf("page %d disagrees with the flat model", i)
		}
		if !bytes.Equal(p[hi-lo:], zeroPage[hi-lo:]) {
			t.Fatalf("page %d holds non-zero bytes beyond the size %#x", i, len(want))
		}
	}
}

// TestMemoryMatchesFlat is FuzzMemoryMatchesFlat's seeded run: random
// operation streams, each checked against the flat model.
func TestMemoryMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := 0; seed < 200; seed++ {
		ops := make([]byte, 600)
		rng.Read(ops)
		checkMatchesFlat(t, ops)
	}
}

// FuzzMemoryMatchesFlat holds the paged Memory to a flat byte-slice model
// over any sequence of Grow, stores, reads and Reset.
func FuzzMemoryMatchesFlat(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for range 8 {
		ops := make([]byte, 300)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(checkMatchesFlat)
}

// scatteredStores grows m by 64 MiB and stores one word in each of 16
// pages spread over the grown range.
func scatteredStores(m *Memory) {
	m.Grow(m.Size() + 64<<20)
	for i := range uint32(16) {
		m.Write32(1<<20+i*(4<<20)+i*pageSize/16, i)
	}
}

// TestMemoryAllocatesWhatIsWritten pins that growing allocates no image:
// after 64 MiB of Grow and 16 scattered stores, the memory holds its page
// table (8 bytes per page: 130 KiB for 65 MiB) and 16 pages (64 KiB), where
// a flat image allocates the whole 65 MiB.
func TestMemoryAllocatesWhatIsWritten(t *testing.T) {
	limit := uint64(256 << 10)
	if raceBuild() {
		limit += 16 * 2 * pageSize // the race detector's allocator puts each page in a 12 KiB size class
	}
	m := NewMemory(1 << 20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	scatteredStores(m)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("Grow by 64 MiB and 16 word stores allocated %d KiB, want under %d KiB", got>>10, limit>>10)
	}
	for i := range uint32(16) {
		if v, _ := m.Read32(1<<20 + i*(4<<20) + i*pageSize/16); v != i {
			t.Fatalf("store %d read back %d", i, v)
		}
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestMemoryPooledReplayAllocsZero pins the pooled-device case: once a
// memory has run a task, replaying it after Reset takes every page from the
// free list and allocates nothing.
func TestMemoryPooledReplayAllocsZero(t *testing.T) {
	m := NewMemory(1 << 20)
	replay := func() {
		scatteredStores(m)
		m.WriteWords(3*pageSize-8, []uint32{1, 2, 3, 4}) // a span across a page
		m.Reset()
	}
	replay()
	if n := testing.AllocsPerRun(20, replay); n != 0 {
		t.Errorf("replay after Reset: %v allocations, want 0", n)
	}
}
