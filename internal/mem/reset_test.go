package mem

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// TestMemoryReset pins the pooled-device contract at the memory level: a
// Reset memory is indistinguishable from a freshly constructed one (size
// and contents), while keeping the pages it took on its free list.
func TestMemoryReset(t *testing.T) {
	m := NewMemory(128)
	m.Grow(4096)
	for a := uint32(0); a < 4096; a += 4 {
		m.Write32(a, 0xdeadbeef)
	}
	m.Reset()
	if m.Size() != 128 {
		t.Errorf("size after reset = %d, want 128", m.Size())
	}
	if v, ok := m.Read32(0); !ok || v != 0 {
		t.Errorf("contents survived reset: %#x", v)
	}
	// Growing back must expose zeroed memory, like a fresh Memory would.
	m.Grow(4096)
	for a := uint32(0); a < 4096; a += 4 {
		if v, _ := m.Read32(a); v != 0 {
			t.Fatalf("stale byte at %#x after reset+grow: %#x", a, v)
		}
	}
}

// TestHierarchyReset pins that Reset rewinds caches (contents, LRU stamps,
// statistics) and DRAM channels (bandwidth clock, counters) to the
// constructed state, so replayed accesses time identically.
func TestHierarchyReset(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.DRAM.Channels = 2
	h, err := NewHierarchy(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewHierarchy(2, cfg)
	if err != nil {
		t.Fatal(err)
	}

	trace := func(h *Hierarchy) []AccessResult {
		var out []AccessResult
		for i := uint32(0); i < 64; i++ {
			out = append(out, h.Access(int(i%2), 0x1000+i*64, i%3 == 0, uint64(i)))
		}
		return out
	}

	// Dirty the hierarchy with a different access pattern, then reset.
	for i := uint32(0); i < 200; i++ {
		h.Access(0, 0x9000+i*128, true, uint64(i))
	}
	h.Reset()

	if h.TotalL1Stats() != (CacheStats{}) || h.L2Stats() != (CacheStats{}) {
		t.Errorf("stats survived reset: L1 %+v L2 %+v", h.TotalL1Stats(), h.L2Stats())
	}
	if h.DRAM() != (DRAMStats{}) {
		t.Errorf("DRAM stats survived reset: %+v", h.DRAM())
	}

	got, want := trace(h), trace(fresh)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d differs after reset: %+v vs fresh %+v", i, got[i], want[i])
		}
	}
	if h.DRAM() != fresh.DRAM() {
		t.Errorf("DRAM stats diverge after identical traces: %+v vs %+v", h.DRAM(), fresh.DRAM())
	}
}

// memOp is one step of a random store/grow sequence.
type memOp struct {
	kind int // 0 Write8, 1 Write16, 2 Write32, 3 WriteBytes, 4 WriteWords, 5 Grow
	addr uint32
	n    int // bytes (WriteBytes), words (WriteWords), new size (Grow)
	val  uint32
}

// randomMemOps draws a sequence that exercises every store method at the
// addresses the page bookkeeping could get wrong: below and above the
// construction size, straddling page boundaries, at the last in-bounds
// bytes, just out of bounds, and in spans of several pages — interleaved
// with Grow, which it tracks so later addresses follow the current size.
func randomMemOps(rng *rand.Rand, init uint32, count int) []memOp {
	size := init
	pick := func() uint32 {
		switch rng.Intn(5) {
		case 0: // straddling (or just short of) a page boundary
			return uint32(1+rng.Intn(int(size>>pageShift)+1))<<pageShift - uint32(1+rng.Intn(4))
		case 1: // the last in-bounds bytes, and the first out of bounds
			return size - uint32(rng.Intn(6))
		case 2: // below the construction size
			return uint32(rng.Intn(int(init)))
		default:
			return uint32(rng.Intn(int(size) + 64))
		}
	}
	ops := make([]memOp, count)
	for i := range ops {
		op := memOp{kind: rng.Intn(6), addr: pick(), val: rng.Uint32() | 1}
		switch op.kind {
		case 3:
			op.n = rng.Intn(3*pageSize + 2)
		case 4:
			op.n = rng.Intn(70)
		case 5:
			op.n = int(size) + rng.Intn(5*pageSize) - pageSize
			size = max(size, uint32(op.n))
		}
		ops[i] = op
	}
	return ops
}

// applyMemOps runs ops on m and returns each op's outcome.
func applyMemOps(m *Memory, ops []memOp) []bool {
	out := make([]bool, len(ops))
	for i, op := range ops {
		switch op.kind {
		case 0:
			out[i] = m.Write8(op.addr, uint8(op.val))
		case 1:
			out[i] = m.Write16(op.addr, uint16(op.val))
		case 2:
			out[i] = m.Write32(op.addr, op.val)
		case 3:
			b := make([]byte, op.n)
			for j := range b {
				b[j] = byte(op.val) | 1
			}
			out[i] = m.WriteBytes(op.addr, b) == nil
		case 4:
			src := make([]uint32, op.n)
			for j := range src {
				src[j] = op.val + uint32(j)
			}
			out[i] = m.WriteWords(op.addr, src)
		case 5:
			m.Grow(uint32(op.n))
			out[i] = true
		}
	}
	return out
}

func memImage(t *testing.T, m *Memory) []byte {
	t.Helper()
	raw, err := m.ReadBytes(0, m.Size())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestMemoryResetAfterRandomWrites holds Reset's page release to a
// whole-image clear: after any sequence of stores and Grows a
// Reset memory has its construction size, is all zero once grown back, and
// replays the sequence exactly like a fresh Memory.
func TestMemoryResetAfterRandomWrites(t *testing.T) {
	const init = 3*pageSize + 100 // ends inside a page
	for seed := int64(0); seed < 60; seed++ {
		ops := randomMemOps(rand.New(rand.NewSource(seed)), init, 120)
		m := NewMemory(init)
		landed := 0
		for _, ok := range applyMemOps(m, ops) {
			if ok {
				landed++
			}
		}
		if landed < len(ops)/2 {
			t.Fatalf("seed %d: sanity: only %d of %d ops landed", seed, landed, len(ops))
		}
		grown := m.Size()
		m.Reset()
		if m.Size() != init {
			t.Fatalf("seed %d: size after Reset = %d, want %d", seed, m.Size(), init)
		}
		m.Grow(grown)
		for a, b := range memImage(t, m) {
			if b != 0 {
				t.Fatalf("seed %d: stale byte at %#x after Reset and re-Grow to %#x", seed, a, grown)
			}
		}
		m.Reset()

		fresh := NewMemory(init)
		want, got := applyMemOps(fresh, ops), applyMemOps(m, ops)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: op outcomes differ on a Reset memory", seed)
		}
		if !bytes.Equal(memImage(t, fresh), memImage(t, m)) {
			t.Fatalf("seed %d: memory image differs on a Reset memory", seed)
		}
	}
}

// TestHierarchyReshape walks one hierarchy through shapes that move every
// config-derived field — core count, L1 and L2 geometry, bank count, DRAM
// channels, both MSHR bounds, prefetch, the L2 bypass — growing, shrinking
// and growing again, and requires a replayed access stream to time and
// count exactly as on a fresh hierarchy of each shape.
func TestHierarchyReshape(t *testing.T) {
	shape := func(cores, l1KiB, l1Ways, l2KiB, banks, channels, mshrs int, pf PrefetchPolicy, noL2 bool) (int, HierarchyConfig) {
		cfg := DefaultHierarchyConfig()
		cfg.L1.SizeBytes, cfg.L1.Ways, cfg.L1.MSHRs = l1KiB<<10, l1Ways, mshrs
		cfg.L2.SizeBytes, cfg.L2.MSHRs, cfg.L2Banks = l2KiB<<10, mshrs, banks
		cfg.DRAM.Channels, cfg.Prefetch, cfg.L2Disabled = channels, pf, noL2
		return cores, cfg
	}
	type step struct {
		cores int
		cfg   HierarchyConfig
	}
	var steps []step
	add := func(cores int, cfg HierarchyConfig) { steps = append(steps, step{cores, cfg}) }
	add(shape(2, 16, 4, 128, 8, 2, 0, PrefetchOff, false))
	add(shape(16, 32, 8, 256, 16, 8, 2, PrefetchNextLine, false))
	add(shape(1, 8, 2, 64, 2, 0, 1, PrefetchOff, false))
	add(shape(8, 16, 4, 128, 4, 3, 0, PrefetchNextLine, true))
	add(shape(16, 64, 16, 256, 1, 5, 4, PrefetchOff, false))
	add(shape(2, 16, 4, 128, 8, 2, 0, PrefetchOff, false))

	type outcome struct {
		results  []AccessResult
		l1       []CacheStats
		banks    []CacheStats
		channels []DRAMStats
	}
	trace := func(h *Hierarchy, cores int, salt uint32) outcome {
		var o outcome
		for i := uint32(0); i < 600; i++ {
			addr := (i*salt*64 + (i%7)*4096) & 0xFFFFF
			o.results = append(o.results, h.Access(int(i)%cores, addr, i%3 == 0, uint64(i/2)))
		}
		for c := 0; c < cores; c++ {
			o.l1 = append(o.l1, h.L1Stats(c))
		}
		for b := 0; b < h.L2Banks(); b++ {
			o.banks = append(o.banks, h.L2BankStats(b))
		}
		for ch := 0; ch < h.DRAMChannels(); ch++ {
			o.channels = append(o.channels, h.DRAMChannelStats(ch))
		}
		return o
	}

	h := new(Hierarchy)
	for i, s := range steps {
		if err := h.Reshape(s.cores, s.cfg); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		fresh, err := NewHierarchy(s.cores, s.cfg)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if got, want := trace(h, s.cores, 5), trace(fresh, s.cores, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: reshaped hierarchy departs from a fresh one", i)
		}
		trace(h, s.cores, 11) // leave the next reshape a different mess than fresh would
	}

	bad := DefaultHierarchyConfig()
	bad.L2.Ways = 3
	if err := h.Reshape(2, bad); err == nil {
		t.Error("Reshape accepted an L2 with a non-power-of-two set count")
	}
}
