package mem

// Property and fuzz tests for L2 banking: a banked L2 must behave
// identically to a monolithic L2 of the same total geometry — hit/miss/
// writeback/LRU decisions and statistics all survive the striping.
//
// The fuzz corpus is seeded with access streams shaped like the registry
// kernels' traffic (gid-strided vecadd/saxpy streams, sgemm row tiles,
// knn-style gathers), so regressions in exactly the patterns the Figure 2
// sweeps produce are caught without running the full runtime.

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// commitTestConfig is small enough that random streams thrash every level:
// 512B 2-way L1s, an 8KiB 4-way L2 over nb banks, 3 DRAM channels (a
// non-power-of-two, so channels do not align with banks).
func commitTestConfig(nb int) HierarchyConfig {
	return HierarchyConfig{
		L1:      CacheConfig{SizeBytes: 512, LineBytes: 64, Ways: 2, HitLatency: 1},
		L2:      CacheConfig{SizeBytes: 8 << 10, LineBytes: 64, Ways: 4, HitLatency: 10},
		DRAM:    DRAMConfig{Latency: 100, BytesPerCycle: 16, Channels: 3},
		L2Banks: nb,
	}
}

func compareHierarchyState(t *testing.T, label string, a, b *Hierarchy) {
	t.Helper()
	if a.L2Stats() != b.L2Stats() {
		t.Errorf("%s: L2 stats differ: %+v vs %+v", label, a.L2Stats(), b.L2Stats())
	}
	if a.DRAM() != b.DRAM() {
		t.Errorf("%s: DRAM stats differ: %+v vs %+v", label, a.DRAM(), b.DRAM())
	}
	if a.DRAMChannels() == b.DRAMChannels() {
		for ch := 0; ch < a.DRAMChannels(); ch++ {
			if a.DRAMChannelStats(ch) != b.DRAMChannelStats(ch) {
				t.Errorf("%s: channel %d stats differ: %+v vs %+v",
					label, ch, a.DRAMChannelStats(ch), b.DRAMChannelStats(ch))
			}
		}
	}
	if a.L2Banks() == b.L2Banks() {
		for bk := 0; bk < a.L2Banks(); bk++ {
			if a.L2BankStats(bk) != b.L2BankStats(bk) {
				t.Errorf("%s: bank %d stats differ: %+v vs %+v",
					label, bk, a.L2BankStats(bk), b.L2BankStats(bk))
			}
		}
	}
}

// access is one decoded step of a fuzzed L1-level stream.
type access struct {
	core  int
	addr  uint32
	write bool
}

// decodeStream turns fuzz bytes into a bounded access stream: 5 bytes per
// access — core, flags, 3 address bytes (clamped to a 1MiB space).
func decodeStream(data []byte, cores int) []access {
	const maxAccesses = 4096
	var out []access
	for len(data) >= 5 && len(out) < maxAccesses {
		a := access{
			core:  int(data[0]) % cores,
			write: data[1]&1 != 0,
			addr:  binary.LittleEndian.Uint32([]byte{data[2], data[3], data[4], 0}) % (1 << 20),
		}
		out = append(out, a)
		data = data[5:]
	}
	return out
}

// runStream drives a stream through the full Access path, one access per
// simulated cycle, and returns the completion cycles.
func runStream(h *Hierarchy, stream []access) []uint64 {
	dones := make([]uint64, len(stream))
	for i, a := range stream {
		dones[i] = h.Access(a.core, a.addr, a.write, uint64(i)).Done
	}
	return dones
}

// checkBankingEquivalence asserts that a banked L2 is observationally
// identical to the monolithic L2 of the same total geometry on the given
// stream: per-access completion cycles, summed L2 hit/miss/writeback
// counts (which pin LRU decisions: a divergent eviction changes later
// hits) and DRAM statistics all match.
func checkBankingEquivalence(t *testing.T, stream []access) {
	t.Helper()
	if len(stream) == 0 {
		return
	}
	const cores = 4
	mono, err := NewHierarchy(cores, commitTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	banked, err := NewHierarchy(cores, commitTestConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if mono.L2Banks() != 1 || banked.L2Banks() != 8 {
		t.Fatalf("bank counts = %d, %d; want 1, 8", mono.L2Banks(), banked.L2Banks())
	}
	dMono := runStream(mono, stream)
	dBanked := runStream(banked, stream)
	for i := range dMono {
		if dMono[i] != dBanked[i] {
			t.Fatalf("access %d (%+v): done %d (monolithic) vs %d (banked)",
				i, stream[i], dMono[i], dBanked[i])
		}
	}
	compareHierarchyState(t, "banked-vs-monolithic", mono, banked)
	for c := 0; c < cores; c++ {
		if mono.L1Stats(c) != banked.L1Stats(c) {
			t.Errorf("core %d L1 stats differ: %+v vs %+v", c, mono.L1Stats(c), banked.L1Stats(c))
		}
	}
}

// kernelShapedSeeds builds the fuzz corpus from the registry kernels'
// characteristic access shapes: gid-strided element streams (vecadd, relu,
// saxpy), row-tiled matrix walks (sgemm, gauss) and irregular gathers
// (knn, gcn_aggr). Encoded with the same 5-byte schema decodeStream reads.
func kernelShapedSeeds() [][]byte {
	enc := func(as []access) []byte {
		var b []byte
		for _, a := range as {
			flags := byte(0)
			if a.write {
				flags = 1
			}
			b = append(b, byte(a.core), flags, byte(a.addr), byte(a.addr>>8), byte(a.addr>>16))
		}
		return b
	}
	var vecadd []access // a[i] + b[i] -> c[i], four cores strided by gid
	for i := 0; i < 256; i++ {
		core := i % 4
		gid := uint32(i)
		vecadd = append(vecadd,
			access{core, 0x10000 + gid*4, false},
			access{core, 0x20000 + gid*4, false},
			access{core, 0x30000 + gid*4, true})
	}
	var sgemm []access // row tile of A reused against a column walk of B
	for i := 0; i < 128; i++ {
		core := (i / 32) % 4
		sgemm = append(sgemm,
			access{core, 0x40000 + uint32(i%16)*4, false},
			access{core, 0x50000 + uint32(i)*256, false},
			access{core, 0x60000 + uint32(i/16)*4, true})
	}
	var knn []access // pseudo-random gather with a small hot region
	state := uint32(12345)
	for i := 0; i < 256; i++ {
		state = state*1664525 + 1013904223
		knn = append(knn,
			access{i % 4, 0x70000 + state%(1<<15), false},
			access{i % 4, 0x80000 + uint32(i%8)*64, true})
	}
	return [][]byte{enc(vecadd), enc(sgemm), enc(knn)}
}

// FuzzL2BankingEquivalence fuzzes arbitrary race-free access streams
// against the banked-vs-monolithic equivalence, seeded with the
// kernel-shaped corpus. `go test` runs the seeds as regular unit tests;
// `go test -fuzz=FuzzL2BankingEquivalence ./internal/mem` explores beyond
// them.
func FuzzL2BankingEquivalence(f *testing.F) {
	for _, seed := range kernelShapedSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBankingEquivalence(t, decodeStream(data, 4))
	})
}

// TestBankedL2StatsRandomStreams is the always-on property check behind
// the fuzz target: randomized streams, heavier than the fuzz seeds, across
// several write mixes.
func TestBankedL2StatsRandomStreams(t *testing.T) {
	for _, writeDenom := range []int{2, 4, 8} {
		r := rand.New(rand.NewSource(int64(writeDenom)))
		stream := make([]access, 3000)
		for i := range stream {
			stream[i] = access{
				core:  r.Intn(4),
				addr:  uint32(r.Intn(1 << 18)),
				write: r.Intn(writeDenom) == 0,
			}
		}
		checkBankingEquivalence(t, stream)
	}
}
