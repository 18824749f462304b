package mem

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := NewMemory(1024)
	if !m.Write32(0, 0xDEADBEEF) {
		t.Fatal("write32 failed")
	}
	v, ok := m.Read32(0)
	if !ok || v != 0xDEADBEEF {
		t.Fatalf("read32 = %#x, %v", v, ok)
	}
	// Little-endian layout.
	b, _ := m.Read8(0)
	if b != 0xEF {
		t.Errorf("byte 0 = %#x, want 0xEF", b)
	}
	h, _ := m.Read16(2)
	if h != 0xDEAD {
		t.Errorf("half 2 = %#x, want 0xDEAD", h)
	}
	if !m.Write16(10, 0x1234) {
		t.Fatal("write16 failed")
	}
	if h, _ := m.Read16(10); h != 0x1234 {
		t.Errorf("half 10 = %#x", h)
	}
	if !m.Write8(20, 0xAB) {
		t.Fatal("write8 failed")
	}
	if b, _ := m.Read8(20); b != 0xAB {
		t.Errorf("byte 20 = %#x", b)
	}
}

func TestMemoryBounds(t *testing.T) {
	m := NewMemory(16)
	if _, ok := m.Read32(13); ok {
		t.Error("read32 past end succeeded")
	}
	if _, ok := m.Read32(16); ok {
		t.Error("read32 at end succeeded")
	}
	if m.Write32(0xFFFFFFFF, 1) {
		t.Error("write32 at 2^32-1 succeeded")
	}
	if _, ok := m.Read32(12); !ok {
		t.Error("read32 of last word failed")
	}
	if err := m.WriteBytes(8, make([]byte, 9)); err == nil {
		t.Error("WriteBytes overflow succeeded")
	}
	if _, err := m.ReadBytes(0, 17); err == nil {
		t.Error("ReadBytes overflow succeeded")
	}
}

func TestMemoryGrow(t *testing.T) {
	m := NewMemory(8)
	m.Write32(4, 99)
	m.Grow(64)
	if m.Size() != 64 {
		t.Fatalf("size = %d", m.Size())
	}
	if v, _ := m.Read32(4); v != 99 {
		t.Errorf("contents lost on grow: %d", v)
	}
	m.Grow(32) // no-op shrink attempt
	if m.Size() != 64 {
		t.Errorf("grow shrank memory to %d", m.Size())
	}
}

func TestCacheConfigValidate(t *testing.T) {
	good := CacheConfig{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4, HitLatency: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	bad := []CacheConfig{
		{SizeBytes: 16 << 10, LineBytes: 48, Ways: 4},   // non-pow2 line
		{SizeBytes: 16 << 10, LineBytes: 64, Ways: 0},   // no ways
		{SizeBytes: 1000, LineBytes: 64, Ways: 4},       // not divisible
		{SizeBytes: 3 * 64 * 4, LineBytes: 64, Ways: 4}, // sets not pow2
		{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4, HitLatency: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestCacheHitMissAndLRU(t *testing.T) {
	// Direct-capacity test: 2 sets x 2 ways x 64B lines = 256B.
	c, err := NewCache(CacheConfig{SizeBytes: 256, LineBytes: 64, Ways: 2, HitLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Three distinct lines mapping to set 0: addresses 0, 128, 256.
	if c.lookup(0, false) {
		t.Error("cold lookup hit")
	}
	c.fill(0, false)
	if !c.lookup(0, false) {
		t.Error("filled line missed")
	}
	c.fill(128, false)
	if !c.lookup(128, false) || !c.lookup(0, false) {
		t.Error("two-way set lost a line")
	}
	// Touch 128 less recently than 0, then fill 256: victim must be 128.
	c.lookup(0, false)
	c.fill(256, false)
	if c.Contains(128) {
		t.Error("LRU evicted wrong line (128 should be gone)")
	}
	if !c.Contains(0) || !c.Contains(256) {
		t.Error("expected lines 0 and 256 resident")
	}
	if c.Stats.Hits == 0 || c.Stats.Misses == 0 {
		t.Errorf("stats not counted: %+v", c.Stats)
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c, _ := NewCache(CacheConfig{SizeBytes: 128, LineBytes: 64, Ways: 1, HitLatency: 1})
	c.fill(0, true) // dirty
	wb, victim := c.fill(128, false)
	if !wb || victim != 0 {
		t.Errorf("writeback = %v, victim %#x; want true, 0", wb, victim)
	}
	wb, _ = c.fill(256, false) // 128 was clean
	if wb {
		t.Error("clean eviction reported writeback")
	}
	// A write hit must dirty the line.
	c.fill(0, false)
	c.lookup(0, true)
	wb, victim = c.fill(128, false)
	if !wb || victim != 0 {
		t.Error("write-hit did not dirty the line")
	}
}

func TestCacheFlush(t *testing.T) {
	c, _ := NewCache(CacheConfig{SizeBytes: 256, LineBytes: 64, Ways: 2, HitLatency: 1})
	c.fill(0, false)
	c.Flush()
	if c.Contains(0) {
		t.Error("flush left line resident")
	}
}

func newTestHierarchy(t *testing.T, cores int) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(cores, HierarchyConfig{
		L1:   CacheConfig{SizeBytes: 1 << 10, LineBytes: 64, Ways: 2, HitLatency: 1},
		L2:   CacheConfig{SizeBytes: 8 << 10, LineBytes: 64, Ways: 4, HitLatency: 10},
		DRAM: DRAMConfig{Latency: 100, BytesPerCycle: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyLatencies(t *testing.T) {
	h := newTestHierarchy(t, 2)
	transfer := uint64(64 / 16)

	// Cold access: L1 miss + L2 miss -> DRAM.
	r := h.Access(0, 0x1000, false, 0)
	if r.L1Hit || r.L2Hit {
		t.Errorf("cold access hit: %+v", r)
	}
	wantCold := uint64(1) + 10 + 100 + transfer
	if r.Done != wantCold {
		t.Errorf("cold done = %d, want %d", r.Done, wantCold)
	}

	// Re-access on the same core: L1 hit.
	r = h.Access(0, 0x1000, false, 200)
	if !r.L1Hit || r.Done != 201 {
		t.Errorf("L1 hit = %+v, want done 201", r)
	}

	// Same line from the other core: L1 miss, L2 hit.
	r = h.Access(1, 0x1000, false, 300)
	if r.L1Hit || !r.L2Hit {
		t.Errorf("cross-core access = %+v, want L2 hit", r)
	}
	if r.Done != 300+1+10 {
		t.Errorf("L2 hit done = %d, want %d", r.Done, 300+1+10)
	}
}

func TestHierarchyDRAMBandwidthSerializes(t *testing.T) {
	h := newTestHierarchy(t, 1)
	transfer := uint64(64 / 16)
	// Two cold misses to distinct lines issued at the same cycle: the second
	// must wait for the first transfer to release the bus.
	r1 := h.Access(0, 0x10000, false, 0)
	r2 := h.Access(0, 0x20000, false, 0)
	if r2.Done != r1.Done+transfer {
		t.Errorf("second miss done = %d, want %d (serialized by bandwidth)", r2.Done, r1.Done+transfer)
	}
	if h.DRAM().LineReads != 2 {
		t.Errorf("line reads = %d", h.DRAM().LineReads)
	}
}

func TestHierarchyL2Disabled(t *testing.T) {
	h, err := NewHierarchy(1, HierarchyConfig{
		L1:         CacheConfig{SizeBytes: 1 << 10, LineBytes: 64, Ways: 2, HitLatency: 1},
		L2:         CacheConfig{SizeBytes: 8 << 10, LineBytes: 64, Ways: 4, HitLatency: 10},
		DRAM:       DRAMConfig{Latency: 50, BytesPerCycle: 64},
		L2Disabled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := h.Access(0, 0, false, 0)
	if r.Done != 1+50+1 {
		t.Errorf("bypass done = %d, want 52", r.Done)
	}
	if h.L2Stats().Accesses != 0 {
		t.Error("L2 accessed while disabled")
	}
}

func TestHierarchyWritebackPath(t *testing.T) {
	// 1-way 128B L1: two lines. Write line 0, then evict it twice over.
	h, err := NewHierarchy(1, HierarchyConfig{
		L1:   CacheConfig{SizeBytes: 128, LineBytes: 64, Ways: 1, HitLatency: 1},
		L2:   CacheConfig{SizeBytes: 256, LineBytes: 64, Ways: 1, HitLatency: 5},
		DRAM: DRAMConfig{Latency: 10, BytesPerCycle: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Access(0, 0, true, 0)     // allocate line 0 dirty in L1
	h.Access(0, 128, false, 50) // same set -> evicts dirty 0 into L2
	if h.L1Stats(0).Writebacks != 1 {
		t.Errorf("L1 writebacks = %d, want 1", h.L1Stats(0).Writebacks)
	}
	// L2 holds line 0 now (allocated by the writeback).
	r := h.Access(0, 0, false, 100)
	if !r.L2Hit {
		t.Errorf("writeback victim not found in L2: %+v", r)
	}
}

func TestHierarchyRejectsBadConfigs(t *testing.T) {
	_, err := NewHierarchy(0, DefaultHierarchyConfig())
	if err == nil {
		t.Error("cores=0 accepted")
	}
	cfg := DefaultHierarchyConfig()
	cfg.L2.LineBytes = 32
	if _, err := NewHierarchy(1, cfg); err == nil {
		t.Error("mismatched line sizes accepted")
	}
	cfg = DefaultHierarchyConfig()
	cfg.DRAM.BytesPerCycle = 0
	if _, err := NewHierarchy(1, cfg); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestCoalesceMergesWithinLine(t *testing.T) {
	// 4 threads reading consecutive words in one 64B line -> 1 request.
	addrs := []uint32{0x100, 0x104, 0x108, 0x10C}
	got := Coalesce(addrs, 0xF, 6, nil)
	if len(got) != 1 || got[0] != 0x100 {
		t.Errorf("coalesced = %#v", got)
	}
	// Strided by 64B -> one request per lane.
	addrs = []uint32{0x0, 0x40, 0x80, 0xC0}
	got = Coalesce(addrs, 0xF, 6, got)
	if len(got) != 4 {
		t.Errorf("strided coalesce = %#v", got)
	}
	// Mask disables lanes.
	got = Coalesce(addrs, 0x5, 6, got)
	if len(got) != 2 || got[0] != 0x0 || got[1] != 0x80 {
		t.Errorf("masked coalesce = %#v", got)
	}
	// Empty mask -> no requests.
	if got = Coalesce(addrs, 0, 6, got); len(got) != 0 {
		t.Errorf("empty mask produced %#v", got)
	}
}

// naiveCoalesce is the first-touch reference Coalesce must reproduce: an
// O(n^2) scan of the active lanes, each line emitted the first time a lane
// touches it.
func naiveCoalesce(addrs []uint32, mask uint64, lineShift uint) []uint32 {
	out := []uint32{}
	for i, a := range addrs {
		if i >= 64 || mask&(1<<uint(i)) == 0 {
			continue
		}
		if line := a >> lineShift << lineShift; !slices.Contains(out, line) {
			out = append(out, line)
		}
	}
	return out
}

// TestCoalesceProperty holds Coalesce to the naive first-touch reference
// over random vectors and masks: unit-stride (the full-mask short-circuit),
// strided, line-straddling, scattered and duplicated addresses; sparse
// (1-4 lane), full and random masks, with set bits beyond len(addrs); line
// shifts 5-7 plus the word- and sub-word-line extremes.
func TestCoalesceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		lineShift := uint(5 + rng.Intn(3))
		if rng.Intn(8) == 0 {
			lineShift = uint(rng.Intn(3)) // 1-4 byte lines: lanes skip lines
		}
		addrs := make([]uint32, n)
		base := rng.Uint32()
		if rng.Intn(2) == 0 {
			base &^= 3
		}
		if rng.Intn(4) == 0 {
			base = -uint32(rng.Intn(2 * n * 4)) // unit spans that wrap 2^32
		}
		switch rng.Intn(5) {
		case 0: // unit stride
			for i := range addrs {
				addrs[i] = base + uint32(i)*4
			}
		case 1: // strided, including strides wider than a line
			stride := uint32(rng.Intn(300))
			for i := range addrs {
				addrs[i] = base + uint32(i)*stride
			}
		case 2: // line-straddling: unit stride starting mid-line
			base = base>>lineShift<<lineShift | 1<<lineShift - 4
			for i := range addrs {
				addrs[i] = base + uint32(i)*4
			}
		case 3: // scattered
			for i := range addrs {
				addrs[i] = rng.Uint32()
			}
		default: // heavy duplication around base
			for i := range addrs {
				addrs[i] = base + uint32(rng.Intn(4))<<lineShift
			}
		}
		var mask uint64
		switch rng.Intn(4) {
		case 0: // sparse: 1-4 lanes, possibly beyond len(addrs)
			for k := 1 + rng.Intn(4); k > 0; k-- {
				mask |= 1 << uint(rng.Intn(64))
			}
		case 1: // full
			mask = ^uint64(0) >> uint(64-n)
		case 2: // full plus stray bits beyond len(addrs)
			mask = ^uint64(0)
		default:
			mask = rng.Uint64()
		}
		want := naiveCoalesce(addrs, mask, lineShift)
		got := Coalesce(addrs, mask, lineShift, make([]uint32, 3, 5))
		if !slices.Equal(got, want) {
			t.Logf("seed %d: n=%d shift=%d mask=%#x\n got %#x\nwant %#x", seed, n, lineShift, mask, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyStatsAggregation(t *testing.T) {
	h := newTestHierarchy(t, 4)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		h.Access(r.Intn(4), uint32(r.Intn(1<<14))&^3, r.Intn(4) == 0, uint64(i))
	}
	total := h.TotalL1Stats()
	if total.Accesses != 1000 {
		t.Errorf("total L1 accesses = %d, want 1000", total.Accesses)
	}
	if total.Hits+total.Misses != total.Accesses {
		t.Errorf("hits+misses != accesses: %+v", total)
	}
	if total.HitRate() <= 0 || total.HitRate() >= 1 {
		t.Errorf("suspicious hit rate %v", total.HitRate())
	}
	if h.L2Stats().Accesses != total.Misses {
		// Writebacks also access L2, so L2 accesses >= L1 misses.
		if h.L2Stats().Accesses < total.Misses {
			t.Errorf("L2 accesses %d < L1 misses %d", h.L2Stats().Accesses, total.Misses)
		}
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := newTestHierarchy(t, 1)
	h.Access(0, 0, false, 0)
	h.Flush()
	r := h.Access(0, 0, false, 1000)
	if r.L1Hit || r.L2Hit {
		t.Errorf("access after flush hit: %+v", r)
	}
}

// BenchmarkCoalesce times the three warp-access shapes Coalesce handles:
// a 32-lane full-mask unit-stride vector, a 32-lane full-mask scatter, and
// a 4-lane sparse mask over 32 slots.
func BenchmarkCoalesce(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	unit := make([]uint32, 32)
	scatter := make([]uint32, 32)
	for i := range unit {
		unit[i] = 0x10000 + uint32(i)*4
		scatter[i] = uint32(rng.Intn(1<<20)) &^ 3
	}
	out := make([]uint32, 0, 64)
	for _, bc := range []struct {
		name  string
		addrs []uint32
		mask  uint64
	}{
		{"unit", unit, 1<<32 - 1},
		{"scatter", scatter, 1<<32 - 1},
		{"sparse", unit, 0x80402001},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out = Coalesce(bc.addrs, bc.mask, 6, out)
			}
		})
	}
}
