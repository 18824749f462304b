package sim_test

// Golden digests: one SHA-256 per registry kernel x device configuration x
// scheduling policy over everything a run can be observed to do — the
// observer's issue stream, the final cycle, the total and per-core pipeline
// counters, and every L1, L2-bank and DRAM-channel statistic. The kernel
// matrices check their cells through checkGoldenCell. Regenerate only for a
// deliberate model change: go test ./internal/sim -update (which rewrites
// testdata/engine_digests.json too).

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/ocl"
	"repro/internal/sim"
)

const goldenPath = "testdata/golden_digests.json"

// goldenConfigs are a small busy device and a wide under-subscribed one.
var goldenConfigs = []string{"4c8w8t", "16c4w16t"}

// hashWords appends fixed-width little-endian words to the digest.
func hashWords(h hash.Hash, words ...uint64) {
	var buf [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(buf[:], w)
		h.Write(buf[:])
	}
}

func hashCoreStats(h hash.Hash, s sim.CoreStats) {
	hashWords(h, s.Issued, s.LaneOps, s.Loads, s.Stores, s.LineRequests, s.MemStall, s.ExecStall, s.IdleAfterEnd)
}

func hashCacheStats(h hash.Hash, s mem.CacheStats) {
	hashWords(h, s.Accesses, s.Hits, s.Misses, s.Writebacks, s.PrefetchIssued, s.PrefetchHits)
}

// goldenCell is one digest of the golden file: a registry kernel on one
// device configuration under one scheduling policy.
type goldenCell struct {
	key    string
	kernel string
	cfg    sim.Config
}

func goldenCells(t *testing.T) []goldenCell {
	t.Helper()
	var cells []goldenCell
	for _, kernel := range kernels.Names() {
		for _, name := range goldenConfigs {
			hw, err := core.ParseName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, sched := range sim.SchedPolicies() {
				cfg := sim.DefaultConfig(hw.Cores, hw.Warps, hw.Threads)
				cfg.Sched = sched
				cells = append(cells, goldenCell{fmt.Sprintf("%s/%s/%s", kernel, name, sched), kernel, cfg})
			}
		}
	}
	return cells
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// goldenDigest runs one verified kernel on d, a device in its NewDevice
// state, and hashes the run's observables.
func goldenDigest(t *testing.T, d *ocl.Device, kernel string) string {
	t.Helper()
	spec, err := kernels.ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.Config()
	h := sha256.New()
	d.SetObserver(func(ev sim.IssueEvent) {
		in := ev.Inst
		hashWords(h, ev.Cycle, uint64(ev.Core), uint64(ev.Warp), uint64(ev.PC), ev.Mask,
			uint64(in.Op), uint64(in.Rd), uint64(in.Rs1), uint64(in.Rs2), uint64(in.Rs3),
			uint64(uint32(in.Imm)), uint64(in.CSR))
	})
	c, err := spec.Build(d, kernels.Params{Scale: 0.05, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunVerified(d, 0); err != nil {
		t.Fatal(err)
	}
	s := d.Sim()
	hier := s.Hierarchy()
	hashWords(h, s.Cycle())
	hashCoreStats(h, s.TotalStats())
	for i := 0; i < cfg.Cores; i++ {
		hashCoreStats(h, s.CoreStatsOf(i))
		hashCacheStats(h, hier.L1Stats(i))
	}
	for b := 0; b < hier.L2Banks(); b++ {
		hashCacheStats(h, hier.L2BankStats(b))
	}
	for ch := 0; ch < hier.DRAMChannels(); ch++ {
		dr := hier.DRAMChannelStats(ch)
		hashWords(h, dr.LineReads, dr.Writebacks, dr.BusyCycles)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// kernelDigest runs one verified kernel on a new device of cfg and hashes
// the run's observables.
func kernelDigest(t *testing.T, kernel string, cfg sim.Config) string {
	t.Helper()
	d, err := ocl.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return goldenDigest(t, d, kernel)
}

// checkGoldenCell holds kernel on cfg, a golden geometry and policy under
// the default memory system, to its checked-in cell.
func checkGoldenCell(t *testing.T, kernel string, cfg sim.Config) {
	t.Helper()
	key := fmt.Sprintf("%s/%s/%s", kernel, cfg.Name(), cfg.Sched)
	want, ok := readGolden(t)[key]
	if !ok {
		t.Fatalf("%s: no golden cell", key)
	}
	if got := kernelDigest(t, kernel, cfg); got != want {
		t.Errorf("%s: digest %s, golden %s", key, got, want)
	}
}

func TestGoldenDigests(t *testing.T) {
	got := map[string]string{}
	for _, cell := range goldenCells(t) {
		got[cell.key] = kernelDigest(t, cell.kernel, cell.cfg)
	}
	if *sim.Update {
		// Map keys marshal sorted, so the file is stable across runs.
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Errorf("%s holds %d digests, the engine produced %d", goldenPath, len(want), len(got))
	}
	for key, digest := range got {
		if want[key] != digest {
			t.Errorf("%s: digest %s, golden %s", key, digest, want[key])
		}
	}
}

// TestGoldenDigestsReshaped drives every golden cell through one pooled
// device, reshaped from cell to cell in a fixed shuffled order — kernels,
// the two golden geometries and the four policies interleaved — with a
// spacer task on a much bigger or much smaller device, under other
// memory-axis settings, squeezed in before every other cell, so the arena
// goes big -> small -> big in cores, warps and threads. Every cell must
// reproduce its checked-in digest: a reshaped device is byte-identical to
// a fresh one down to the observer stream. There is no -update here.
func TestGoldenDigestsReshaped(t *testing.T) {
	want := readGolden(t)
	cells := goldenCells(t)
	rand.New(rand.NewSource(19)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })

	big := sim.DefaultConfig(32, 32, 32)
	big.Sched = sim.SchedGTO
	big.Mem.L1.SizeBytes, big.Mem.L1.Ways = 32<<10, 8
	big.Mem.L1.MSHRs, big.Mem.L2.MSHRs = 4, 4
	big.Mem.Prefetch = mem.PrefetchNextLine
	spacers := []sim.Config{big, sim.DefaultConfig(1, 2, 2)}

	pool := ocl.NewDevicePool(1)
	run := func(cfg sim.Config, kernel string) string {
		d, err := pool.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Put(d)
		return goldenDigest(t, d, kernel)
	}
	for i, cell := range cells {
		if i%2 == 0 {
			run(spacers[i/2%2], "saxpy")
		}
		if got := run(cell.cfg, cell.kernel); got != want[cell.key] {
			t.Errorf("%s (cell %d of the reshape order): digest %s, golden %s", cell.key, i, got, want[cell.key])
		}
	}
	if st := pool.Stats(); st.Misses != 1 {
		t.Errorf("the reshape order built %d devices, want 1", st.Misses)
	}
}
