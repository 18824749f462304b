package mem

import (
	"fmt"
	"math/bits"
)

// DRAMConfig models main memory timing.
type DRAMConfig struct {
	Latency       int // cycles from request to first data
	BytesPerCycle int // sustained transfer bandwidth per channel
	// Channels is the number of independent memory channels; lines are
	// interleaved across channels by address. 0 means 1. Device builders
	// scale this with core count, mirroring how Vortex widens its memory
	// interface with the number of clusters.
	Channels int
}

// PrefetchPolicy selects the L1 prefetcher.
type PrefetchPolicy uint8

const (
	// PrefetchOff disables prefetching — the pre-prefetch model and the
	// differential oracle.
	PrefetchOff PrefetchPolicy = iota
	// PrefetchNextLine issues a tag-only fill of line X+1 into the
	// requesting core's L1 on every demand miss of line X (skipped when
	// the line is already present, when the set's LRU victim is dirty, or
	// when the next line would wrap the address space; see
	// Cache.prefetchFill).
	PrefetchNextLine
)

func (p PrefetchPolicy) String() string {
	switch p {
	case PrefetchOff:
		return "off"
	case PrefetchNextLine:
		return "nextline"
	}
	return fmt.Sprintf("prefetch(%d)", uint8(p))
}

// PrefetchPolicies lists every prefetch policy, in enum order.
func PrefetchPolicies() []PrefetchPolicy {
	return []PrefetchPolicy{PrefetchOff, PrefetchNextLine}
}

// ParsePrefetchPolicy resolves a policy name as printed by
// PrefetchPolicy.String ("off", "nextline").
func ParsePrefetchPolicy(name string) (PrefetchPolicy, error) {
	for _, p := range PrefetchPolicies() {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("mem: unknown prefetch policy %q (want off or nextline)", name)
}

// HierarchyConfig sizes the full memory system.
type HierarchyConfig struct {
	L1   CacheConfig
	L2   CacheConfig
	DRAM DRAMConfig
	// L2Disabled bypasses the shared L2 (misses go straight to DRAM).
	L2Disabled bool
	// L2Banks is the number of independent L2 banks; consecutive cache
	// lines are striped across banks. 0 picks the default (8). The count
	// is rounded down to a power of two and clamped to the set count, and
	// the set-to-bank striping is arranged so hit/miss behaviour, LRU
	// decisions and aggregate statistics are identical to a monolithic L2
	// of the same total geometry.
	L2Banks int
	// Prefetch selects the L1 prefetcher (default PrefetchOff).
	Prefetch PrefetchPolicy
}

// DefaultHierarchyConfig returns the Vortex-like defaults documented in
// DESIGN.md: 16 KiB 4-way L1 (64 B lines, 2-cycle hits), 128 KiB 8-way
// shared L2 (24-cycle hits), 180-cycle DRAM at 16 B/cycle.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1:      CacheConfig{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4, HitLatency: 2},
		L2:      CacheConfig{SizeBytes: 128 << 10, LineBytes: 64, Ways: 8, HitLatency: 24},
		DRAM:    DRAMConfig{Latency: 180, BytesPerCycle: 16},
		L2Banks: 8,
	}
}

// DRAMStats counts main-memory traffic.
type DRAMStats struct {
	LineReads  uint64
	Writebacks uint64
	BusyCycles uint64
}

// dramChannel is the timing and statistics state of one memory channel.
type dramChannel struct {
	free  uint64 // next cycle the channel can start a transfer
	stats DRAMStats
}

// Hierarchy is the assembled memory system for one device: per-core private
// L1 front-ends over a banked shared L2 over per-channel DRAM. Access walks
// all three levels; calls must be single-threaded and ordered by
// (cycle, core) for deterministic LRU, bandwidth and statistics state.
type Hierarchy struct {
	cfg       HierarchyConfig
	l1        []Cache
	banks     []Cache // L2 banks; lines striped by low line-index bits
	bankBits  uint
	bankMask  uint32
	lineShift uint
	dram      []dramChannel
	// bankMSHR tracks, per L2 bank, the completion cycles of the bank's
	// outstanding DRAM fetches; consulted only when L2.MSHRs > 0.
	bankMSHR [][]uint64
}

// NewHierarchy builds the hierarchy for cores L1 instances.
func NewHierarchy(cores int, cfg HierarchyConfig) (*Hierarchy, error) {
	h := new(Hierarchy)
	if err := h.Reshape(cores, cfg); err != nil {
		return nil, err
	}
	return h, nil
}

// Reshape puts the hierarchy into the freshly constructed state of cores L1
// instances under cfg, keeping every cache line array, DRAM channel and
// MSHR queue that is large enough: a hierarchy reshaped from any earlier
// shape times a replayed access stream exactly like a new one. It is the
// one construction path — NewHierarchy is the zero value plus Reshape. On
// error the hierarchy must not be used until a later Reshape succeeds.
func (h *Hierarchy) Reshape(cores int, cfg HierarchyConfig) error {
	if cores <= 0 {
		return fmt.Errorf("mem: cores %d invalid", cores)
	}
	if cfg.L1.LineBytes != cfg.L2.LineBytes {
		return fmt.Errorf("mem: L1/L2 line sizes differ (%d vs %d)", cfg.L1.LineBytes, cfg.L2.LineBytes)
	}
	if cfg.DRAM.Latency < 0 || cfg.DRAM.BytesPerCycle <= 0 {
		return fmt.Errorf("mem: bad DRAM config %+v", cfg.DRAM)
	}
	if cfg.L2Banks < 0 {
		return fmt.Errorf("mem: negative L2 bank count %d", cfg.L2Banks)
	}
	if cfg.DRAM.Channels < 0 {
		return fmt.Errorf("mem: negative DRAM channel count %d", cfg.DRAM.Channels)
	}
	if _, err := ParsePrefetchPolicy(cfg.Prefetch.String()); err != nil {
		return err
	}
	if err := cfg.L1.Validate(); err != nil {
		return fmt.Errorf("mem: L1: %w", err)
	}
	if err := cfg.L2.Validate(); err != nil {
		return fmt.Errorf("mem: L2: %w", err)
	}
	h.cfg = cfg
	// Slots a shrink left beyond len keep their caches (and line arrays)
	// for the next growth; slots never used are zero Caches, which Reshape
	// builds like any other.
	h.l1 = resized(h.l1, cores)
	for i := range h.l1 {
		if err := h.l1[i].Reshape(cfg.L1); err != nil {
			return fmt.Errorf("mem: L1: %w", err)
		}
	}
	h.lineShift = h.l1[0].lineShift
	nb := bankCount(cfg)
	bankCfg := cfg.L2
	bankCfg.SizeBytes = cfg.L2.SizeBytes / nb
	h.banks = resized(h.banks, nb)
	for i := range h.banks {
		if err := h.banks[i].Reshape(bankCfg); err != nil {
			return fmt.Errorf("mem: L2 bank: %w", err)
		}
	}
	h.bankBits = uint(bits.TrailingZeros(uint(nb)))
	h.bankMask = uint32(nb - 1)
	if cfg.L2.MSHRs > 0 && !cfg.L2Disabled {
		h.bankMSHR = resized(h.bankMSHR, nb)
		for i := range h.bankMSHR {
			h.bankMSHR[i] = resized(h.bankMSHR[i], cfg.L2.MSHRs)[:0]
		}
	}
	h.dram = resized(h.dram, max(cfg.DRAM.Channels, 1))
	h.Reset()
	return nil
}

// bankCount resolves the effective L2 bank count: the configured value (or
// the default 8), rounded down to a power of two and clamped to the set
// count so every bank keeps at least one set.
func bankCount(cfg HierarchyConfig) int {
	nb := cfg.L2Banks
	if nb == 0 {
		nb = 8
	}
	sets := cfg.L2.SizeBytes / (cfg.L2.LineBytes * cfg.L2.Ways)
	if nb > sets {
		nb = sets
	}
	p := 1
	for p*2 <= nb {
		p *= 2
	}
	return p
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// LineShift returns log2 of the cache line size.
func (h *Hierarchy) LineShift() uint { return h.lineShift }

// L1Stats returns the statistics of core's private L1.
func (h *Hierarchy) L1Stats(core int) CacheStats { return h.l1[core].Stats }

// L2Banks returns the number of independent L2 banks.
func (h *Hierarchy) L2Banks() int { return len(h.banks) }

// L2BankStats returns the statistics of one L2 bank.
func (h *Hierarchy) L2BankStats(bank int) CacheStats { return h.banks[bank].Stats }

// DRAMChannels returns the number of independent memory channels.
func (h *Hierarchy) DRAMChannels() int { return len(h.dram) }

// DRAMChannelStats returns the statistics of one memory channel.
func (h *Hierarchy) DRAMChannelStats(ch int) DRAMStats { return h.dram[ch].stats }

// DRAM returns the main-memory statistics, summed over channels.
func (h *Hierarchy) DRAM() DRAMStats {
	var s DRAMStats
	for i := range h.dram {
		s.LineReads += h.dram[i].stats.LineReads
		s.Writebacks += h.dram[i].stats.Writebacks
		s.BusyCycles += h.dram[i].stats.BusyCycles
	}
	return s
}

// L2Stats returns the shared L2 statistics, summed over banks.
func (h *Hierarchy) L2Stats() CacheStats {
	var s CacheStats
	for i := range h.banks {
		b := &h.banks[i]
		s.Accesses += b.Stats.Accesses
		s.Hits += b.Stats.Hits
		s.Misses += b.Stats.Misses
		s.Writebacks += b.Stats.Writebacks
	}
	return s
}

// TotalL1Stats sums L1 statistics over all cores.
func (h *Hierarchy) TotalL1Stats() CacheStats {
	var s CacheStats
	for i := range h.l1 {
		c := &h.l1[i]
		s.Accesses += c.Stats.Accesses
		s.Hits += c.Stats.Hits
		s.Misses += c.Stats.Misses
		s.Writebacks += c.Stats.Writebacks
		s.PrefetchIssued += c.Stats.PrefetchIssued
		s.PrefetchHits += c.Stats.PrefetchHits
	}
	return s
}

// AccessResult describes where a line request was satisfied.
type AccessResult struct {
	Done  uint64 // cycle the data is available (or the store retires)
	L1Hit bool
	L2Hit bool
}

// Access performs the full timing walk for one cache-line request issued by
// core at cycle now. addr may be any byte address within the line. Write
// requests allocate like reads (write-allocate) and mark lines dirty. An L1
// miss fills the L1 immediately (tags only; the simulator is functional at
// issue), retires the dirty victim it displaced into the L2 without
// stalling the requester, and then completes through the line's L2 bank or,
// on an L2 miss, its DRAM channel. Access is AccessL1 followed, on a miss,
// by AccessMiss; callers on a hot path call the two halves directly so a
// hit costs one L1 probe.
func (h *Hierarchy) Access(core int, addr uint32, write bool, now uint64) AccessResult {
	if done, hit := h.AccessL1(core, addr, write, now); hit {
		return AccessResult{Done: done, L1Hit: true}
	}
	done, l2Hit := h.AccessMiss(core, addr, write, now)
	return AccessResult{Done: done, L2Hit: l2Hit}
}

// AccessL1 is the first half of Access: it probes core's L1 for addr's line,
// counting the access and updating LRU and dirty state, and reports whether
// it hit; done is the completion cycle of a hit. A miss must be completed by
// AccessMiss with the same arguments before the next access.
func (h *Hierarchy) AccessL1(core int, addr uint32, write bool, now uint64) (done uint64, hit bool) {
	return now + uint64(h.cfg.L1.HitLatency), h.l1[core].lookup(addr, write)
}

// AccessMiss is the second half of Access, for a request AccessL1 reported
// as an L1 miss: it fills the L1 and completes through the L2 or DRAM. It
// returns the completion cycle and whether the line hit in the L2.
func (h *Hierarchy) AccessMiss(core int, addr uint32, write bool, now uint64) (done uint64, l2Hit bool) {
	l1 := &h.l1[core]
	t := now + uint64(h.cfg.L1.HitLatency)
	wb, victim := l1.fill(addr, write)
	if h.cfg.Prefetch == PrefetchNextLine {
		// Tag-only next-line prefetch: free of timing (the fill models a
		// fetch riding along with the demand line). Skipped when line+1
		// would wrap the 32-bit address space.
		if next := (addr &^ uint32(h.cfg.L1.LineBytes-1)) + uint32(h.cfg.L1.LineBytes); next != 0 {
			l1.prefetchFill(next)
		}
	}
	if h.cfg.L2Disabled {
		if wb {
			h.dramWriteback(victim, t)
		}
		return h.dramRead(addr, t), false
	}
	if wb {
		// The dirty L1 victim is looked up in (or allocated dirty into) its
		// L2 bank; a dirty L2 line that allocation displaces goes to DRAM.
		bank, baddr := h.bankOf(victim)
		if b := &h.banks[bank]; !b.lookup(baddr, true) {
			if wb2, v := b.fill(baddr, true); wb2 {
				h.dramWriteback(h.bankVictim(bank, v), t)
			}
		}
	}
	bank, baddr := h.bankOf(addr)
	b := &h.banks[bank]
	t += uint64(h.cfg.L2.HitLatency)
	if b.lookup(baddr, write) {
		return t, true
	}
	wb, victim = b.fill(baddr, write)
	if h.cfg.L2.MSHRs > 0 {
		t = h.bankFetchSlot(bank, t)
	}
	if wb {
		h.dramWriteback(h.bankVictim(bank, victim), t)
	}
	return h.dramRead(addr, t), false
}

// bankFetchSlot applies the bank's MSHR bound to a DRAM fetch that wants to
// leave at cycle at: entries whose lifetime has ended are retired, and while
// every MSHR is busy the fetch (and the victim writeback travelling with it)
// is pushed to the earliest retirement. An entry's lifetime is the bank-local
// unloaded round trip [fetchAt, fetchAt + DRAM latency + transfer): the
// bound is a property of the bank alone, independent of channel contention
// (DESIGN.md, "Memory axes").
func (h *Hierarchy) bankFetchSlot(bank int, at uint64) uint64 {
	q := h.bankMSHR[bank][:0]
	for _, d := range h.bankMSHR[bank] {
		if d > at {
			q = append(q, d)
		}
	}
	for len(q) >= h.cfg.L2.MSHRs {
		min := q[0]
		for _, d := range q[1:] {
			if d < min {
				min = d
			}
		}
		at = min
		live := q[:0]
		for _, d := range q {
			if d > at {
				live = append(live, d)
			}
		}
		q = live
	}
	q = append(q, at+uint64(h.cfg.DRAM.Latency)+h.transferCycles())
	h.bankMSHR[bank] = q
	return at
}

// bankOf maps an address to its L2 bank and the bank-local address.
// Consecutive lines stripe across banks (the low line-index bits select the
// bank); the remaining line bits index within the bank, so the (bank, set)
// pair partitions lines exactly like the set index of a monolithic L2.
func (h *Hierarchy) bankOf(addr uint32) (int, uint32) {
	line := addr >> h.lineShift
	return int(line & h.bankMask), (line >> h.bankBits) << h.lineShift
}

// bankVictim reconstructs the device address of a bank-local victim line.
func (h *Hierarchy) bankVictim(bank int, baddr uint32) uint32 {
	return ((baddr>>h.lineShift)<<h.bankBits | uint32(bank)) << h.lineShift
}

// dramChannelOf returns the memory channel that services addr; cache lines
// are interleaved across channels.
func (h *Hierarchy) dramChannelOf(addr uint32) *dramChannel {
	return &h.dram[(addr>>h.lineShift)%uint32(len(h.dram))]
}

// dramRead models a line fetch on addr's channel: the request waits for the
// channel, occupies it for the transfer, and completes after
// latency + transfer.
func (h *Hierarchy) dramRead(addr uint32, now uint64) uint64 {
	c := h.dramChannelOf(addr)
	transfer := h.transferCycles()
	start := now
	if c.free > start {
		start = c.free
	}
	c.free = start + transfer
	c.stats.LineReads++
	c.stats.BusyCycles += transfer
	return start + uint64(h.cfg.DRAM.Latency) + transfer
}

// dramWriteback occupies channel bandwidth for an evicted dirty line
// without delaying the requester.
func (h *Hierarchy) dramWriteback(addr uint32, now uint64) {
	c := h.dramChannelOf(addr)
	transfer := h.transferCycles()
	start := now
	if c.free > start {
		start = c.free
	}
	c.free = start + transfer
	c.stats.Writebacks++
	c.stats.BusyCycles += transfer
}

func (h *Hierarchy) transferCycles() uint64 {
	n := uint64(h.cfg.L1.LineBytes) / uint64(h.cfg.DRAM.BytesPerCycle)
	if n == 0 {
		n = 1
	}
	return n
}

// Flush invalidates all cache levels (used between independent launches in
// cold-cache experiments; statistics are preserved).
func (h *Hierarchy) Flush() {
	for i := range h.l1 {
		h.l1[i].Flush()
	}
	for i := range h.banks {
		h.banks[i].Flush()
	}
}

// Reset restores the whole memory system to its freshly constructed state:
// every cache level is invalidated with statistics and LRU stamps zeroed,
// and every DRAM channel's bandwidth clock and counters rewound. A pooled
// device that is Reset between runs produces timing byte-identical to a
// newly built hierarchy.
func (h *Hierarchy) Reset() {
	for i := range h.l1 {
		h.l1[i].Reset()
	}
	for i := range h.banks {
		h.banks[i].Reset()
	}
	for i := range h.dram {
		h.dram[i].free = 0
		h.dram[i].stats = DRAMStats{}
	}
	for i := range h.bankMSHR {
		h.bankMSHR[i] = h.bankMSHR[i][:0]
	}
}

// CoalesceTemplate derives the line list of an address vector that equals a
// previously coalesced vector shifted by one constant delta, without
// re-running Coalesce: leader is the leader's line list (Coalesce output)
// and the result is each entry plus delta, in order, written into out.
//
// The derive-or-fallback contract: ok is true iff delta is line-aligned
// (delta % lineSize == 0). Then addr -> addr+delta maps every address of a
// line to the same shifted line — line(a+d) = line(a)+d mod 2^32, because
// both line(a) and d are multiples of the line size and the sub-line offset
// cannot carry — and the mapping is a bijection on line indices, so the
// shifted list preserves the leader's dedup and first-touch order exactly.
// With a non-aligned delta two leader addresses of one line can straddle a
// mate line boundary; ok is false, out is untouched, and the caller must
// fall back to a direct Coalesce of the mate's addresses. Verified against
// Coalesce by the property/fuzz harness in coalesce_template_test.go.
func CoalesceTemplate(leader []uint32, delta uint32, lineShift uint, out []uint32) ([]uint32, bool) {
	if delta&(1<<lineShift-1) != 0 {
		return out, false
	}
	out = out[:0]
	for _, line := range leader {
		out = append(out, line+delta)
	}
	return out, true
}

// Coalesce merges the active lanes' byte addresses into unique line
// requests, preserving first-touch order. mask selects active lanes (bits at
// or beyond len(addrs) are ignored); out is an optional reusable buffer (no
// allocation when its capacity suffices).
//
// Three shapes are handled, each emitting exactly what a naive first-touch
// scan would:
//   - a full mask over a unit-stride word vector (lane i at addrs[0]+4i,
//     no wrap) touches every line from the first lane's to the last's in
//     ascending order, so the lines are emitted directly (CoalesceUnit);
//   - otherwise only the active lanes are visited, and dedup runs in
//     O(lanes) for the shapes kernels produce: a 64-line window anchored
//     near the first active lane's line is tracked in a bitmap, which covers
//     any unit-stride or moderately strided warp access (<=64 lanes touching
//     lines within +/-32 of the anchor);
//   - lines falling outside the window — pathologically scattered warps —
//     fall back to a linear scan of the emitted lines, the naive O(n^2)
//     behaviour at worst. A line is in or out of the window independently
//     of visit order, so the emitted sequence is the naive scan's.
func Coalesce(addrs []uint32, mask uint64, lineShift uint, out []uint32) []uint32 {
	n := len(addrs)
	if n < 64 {
		mask &= 1<<uint(n) - 1
	}
	if n > 0 && mask == ^uint64(0)>>uint(64-n) {
		if a0 := addrs[0]; addrs[n-1]-a0 == uint32(n-1)*4 && a0 <= addrs[n-1] && unitStride(addrs) {
			return CoalesceUnit(a0, n, lineShift, out)
		}
	}
	out = out[:0]
	if mask == 0 {
		return out
	}
	w := window{base: addrs[bits.TrailingZeros64(mask)]>>lineShift - 32}
	if bits.OnesCount64(mask) <= sparseLanes {
		for m := mask; m != 0; m &= m - 1 {
			out = w.add(out, addrs[bits.TrailingZeros64(m)]>>lineShift, lineShift)
		}
		return out
	}
	for i, a := range addrs {
		if mask&(1<<uint(i)) != 0 {
			out = w.add(out, a>>lineShift, lineShift)
		}
	}
	return out
}

// sparseLanes is the active-lane count up to which Coalesce visits only
// the set mask bits; denser masks walk every slot, which keeps the
// per-lane loop tight on full-width scatters.
const sparseLanes = 8

// window is Coalesce's dedup state: a bitmap of the 64 lines from base
// (a line index) up, plus a linear scan of the emitted lines for lines
// outside it.
type window struct {
	base uint32
	seen uint64
}

// add appends line index idx to out unless it was already emitted.
func (w *window) add(out []uint32, idx uint32, lineShift uint) []uint32 {
	line := idx << lineShift
	if d := idx - w.base; d < 64 { // unsigned: lines below the window wrap past 64
		bit := uint64(1) << d
		if w.seen&bit != 0 {
			return out
		}
		w.seen |= bit
	} else {
		for _, o := range out {
			if o == line {
				return out
			}
		}
	}
	return append(out, line)
}

// unitStride reports whether every addrs[i] is addrs[0]+4i (mod 2^32).
func unitStride(addrs []uint32) bool {
	a := addrs[0]
	for _, x := range addrs[1:] {
		a += 4
		if x != a {
			return false
		}
	}
	return true
}

// CoalesceUnit returns the line requests of n lanes reading consecutive
// words first, first+4, ..., first+4(n-1) — the Coalesce of a full-mask
// unit-stride vector — written into out. The span must not wrap the 32-bit
// address space. Lines of at least a word are touched contiguously, so they
// are emitted as the range from the first lane's line to the last's without
// visiting the lanes; narrower lines (which lanes can skip over) take the
// per-lane walk.
func CoalesceUnit(first uint32, n int, lineShift uint, out []uint32) []uint32 {
	out = out[:0]
	if n <= 0 {
		return out
	}
	last := first + uint32(n-1)*4
	if lineShift < 2 {
		for a := first; ; a += 4 {
			if l := a >> lineShift << lineShift; len(out) == 0 || out[len(out)-1] != l {
				out = append(out, l)
			}
			if a == last {
				return out
			}
		}
	}
	for l := first >> lineShift; l <= last>>lineShift; l++ {
		out = append(out, l<<lineShift)
	}
	return out
}
