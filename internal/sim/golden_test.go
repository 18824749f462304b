package sim_test

// Golden digests: one SHA-256 per registry kernel x device configuration x
// scheduling policy over everything a run can be observed to do — the
// observer's issue stream, the final cycle, the total and per-core pipeline
// counters, and every L1, L2-bank and DRAM-channel statistic. The
// differential matrices compare host paths with each other; this file pins
// them all to checked-in values, so a change to the engine that moves every
// path the same way is caught too. Regenerate only for a deliberate model
// change: go test ./internal/sim -run TestGoldenDigests -update

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/ocl"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_digests.json from the current engine")

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

// goldenDigest runs one verified kernel and hashes its observables.
func goldenDigest(t *testing.T, kernel string, hw core.HWInfo, sched sim.SchedPolicy) string {
	t.Helper()
	spec, err := kernels.ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(hw.Cores, hw.Warps, hw.Threads)
	cfg.Sched = sched
	d, err := ocl.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
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

func TestGoldenDigests(t *testing.T) {
	got := map[string]string{}
	for _, kernel := range kernels.Names() {
		for _, name := range goldenConfigs {
			hw, err := core.ParseName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, sched := range sim.SchedPolicies() {
				got[fmt.Sprintf("%s/%s/%s", kernel, name, sched)] = goldenDigest(t, kernel, hw, sched)
			}
		}
	}
	if *updateGolden {
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
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d digests, the engine produced %d", goldenPath, len(want), len(got))
	}
	for key, digest := range got {
		if want[key] != digest {
			t.Errorf("%s: digest %s, golden %s", key, digest, want[key])
		}
	}
}
