package sim

// Shared fixtures of the bare-simulator differential tests: the snapshot of
// everything a run can be observed to do, the runner that produces one, the
// frozen-digest check every case is held to, and the standard programs the
// engine, scheduler, lockstep-batch and memory-axis tests all run.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/mem"
)

// Update rewrites the digest files under testdata from the current engine:
// go test ./internal/sim -update. Use it only for a deliberate model change.
var Update = flag.Bool("update", false, "rewrite the digest files under testdata from the current engine")

const engineDigestsPath = "testdata/engine_digests.json"

var engineDigests struct {
	once sync.Once
	m    map[string]string
	err  error
}

// digestOf hashes the %v rendering of vs: every field of a snapshot, a
// trap record, a stats or observer-event slice.
func digestOf(vs ...any) string {
	h := sha256.New()
	for _, v := range vs {
		fmt.Fprintf(h, "%v\n", v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CheckEngineDigest holds digest to the frozen answer of testdata/
// engine_digests.json keyed by the test's name, plus "/sub" when sub is
// non-empty; under -update it records digest instead.
func CheckEngineDigest(t *testing.T, sub, digest string) {
	t.Helper()
	key := t.Name()
	if sub != "" {
		key += "/" + sub
	}
	d := &engineDigests
	d.once.Do(func() {
		d.m = map[string]string{}
		raw, err := os.ReadFile(engineDigestsPath)
		if err == nil {
			err = json.Unmarshal(raw, &d.m)
		}
		if err != nil && !*Update {
			d.err = err
		}
	})
	if d.err != nil {
		t.Fatal(d.err)
	}
	if *Update {
		d.m[key] = digest
		// Map keys marshal sorted, so the file is stable across runs.
		raw, err := json.MarshalIndent(d.m, "", "  ")
		if err == nil {
			err = os.WriteFile(engineDigestsPath, append(raw, '\n'), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := d.m[key]
	switch {
	case !ok:
		t.Errorf("%s: no frozen digest in %s", key, engineDigestsPath)
	case want != digest:
		t.Errorf("%s: digest %s, frozen %s", key, digest, want)
	}
}

// snapshot captures everything the determinism contract covers: the device
// cycle, every core's pipeline counters, every cache level's statistics
// (down to individual L2 banks) and the DRAM counters (down to individual
// channels).
type snapshot struct {
	cycles  uint64
	cores   []CoreStats
	l1      []mem.CacheStats
	l2      mem.CacheStats
	banks   []mem.CacheStats
	dram    mem.DRAMStats
	dramCh  []mem.DRAMStats
	memData []byte
}

// takeSnapshot collects the contract state of a finished run, with the
// 64 KiB of memory at 0x8000 the differential programs write.
func takeSnapshot(t *testing.T, s *Sim) snapshot {
	t.Helper()
	hier := s.Hierarchy()
	snap := snapshot{cycles: s.Cycle(), l2: hier.L2Stats(), dram: hier.DRAM()}
	for c := 0; c < s.Config().Cores; c++ {
		snap.cores = append(snap.cores, s.CoreStatsOf(c))
		snap.l1 = append(snap.l1, hier.L1Stats(c))
	}
	for b := 0; b < hier.L2Banks(); b++ {
		snap.banks = append(snap.banks, hier.L2BankStats(b))
	}
	for ch := 0; ch < hier.DRAMChannels(); ch++ {
		snap.dramCh = append(snap.dramCh, hier.DRAMChannelStats(ch))
	}
	var err error
	if snap.memData, err = s.Memory().ReadBytes(0x8000, 1<<16); err != nil {
		t.Fatal(err)
	}
	return snap
}

// newDiffSim builds a device for cfg over 1 MiB of memory with prog
// loaded and activate applied.
func newDiffSim(t *testing.T, cfg Config, prog string, activate func(*Sim) error) *Sim {
	t.Helper()
	s := rigNoStart(t, cfg, prog, nil)
	if err := activate(s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runSnapshot runs prog to completion on a fresh device after activate has
// started its warps, and snapshots the result.
func runSnapshot(t *testing.T, cfg Config, prog string, activate func(*Sim) error) snapshot {
	t.Helper()
	s := newDiffSim(t, cfg, prog, activate)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return takeSnapshot(t, s)
}

// strided load/store loop: every warp walks a distinct region, so the cores
// contend on the L2 and DRAM channels but never race on data.
const diffMemProg = `
	csrr s0, cid
	slli s0, s0, 14
	csrr t0, wid
	slli t1, t0, 10
	add  s0, s0, t1
	csrr t0, tid
	slli t1, t0, 6
	add  s0, s0, t1
	li   t2, 0x8000
	add  s0, s0, t2
	li   t3, 40
loop:
	lw   t4, 0(s0)
	add  t4, t4, t3
	sw   t4, 0(s0)
	addi s0, s0, 64
	addi t3, t3, -1
	bnez t3, loop
	ecall
`

// FP pipeline mix with divergence: exercises the float scoreboard and the
// ballot/split/join path.
const diffFPProg = `
	csrr t0, cid
	csrr t1, wid
	slli t1, t1, 3
	add  t0, t0, t1
	csrr t2, tid
	add  t0, t0, t2
	fcvt.s.w f0, t0
	fmul.s f1, f0, f0
	fdiv.s f2, f1, f0
	andi t3, t0, 1
	vx_split t3
	beqz t3, skip
	fsqrt.s f2, f1
skip:
	vx_join
	fmadd.s f3, f2, f1, f0
	csrr s0, cid
	slli s0, s0, 12
	csrr t1, wid
	slli t2, t1, 7
	add  s0, s0, t2
	csrr t2, tid
	slli t3, t2, 2
	add  s0, s0, t3
	li   t4, 0x9000
	add  s0, s0, t4
	fsw  f3, 0(s0)
	ecall
`

// warp spawn + barrier: warp 0 of each core spawns the rest, all meet at a
// barrier, then do a strided store.
const diffSpawnProg = `
	csrr t0, wid
	bnez t0, work
	li   t1, 4
	la   t2, work
	vx_wspawn t1, t2
work:
	li   t1, 4
	li   t0, 0
	vx_bar t0, t1
	csrr s0, cid
	slli s0, s0, 12
	csrr t1, wid
	slli t2, t1, 6
	add  s0, s0, t2
	li   t3, 0xA000
	add  s0, s0, t3
	csrr t4, wid
	sw   t4, 0(s0)
	ecall
`

// identityLayout gives every scoreboard slot the row of its own number —
// x0-x31 rows 0-31, f0-f31 rows 32-63 — and fits the active warps to it, so
// a whitebox test addresses integer register r at row r and float register
// r at row 32+r. Records decoded afterwards remap to themselves; s must not
// hold a program decoded under another layout.
func identityLayout(s *Sim) {
	if len(s.dec) > 0 {
		panic("identityLayout: a program is loaded")
	}
	for slot := range s.rowOf {
		s.rowOf[slot] = uint8(slot)
	}
	s.nrows = len(s.rowOf)
	s.growActive()
}

// setReg writes v to lane of scoreboard slot's row in w when the loaded
// programs name the slot; a slot they never name has no row and is never
// read.
func setReg(s *Sim, w *warp, slot uint8, lane int, v uint32) {
	if r := s.rowOf[slot]; r != 0 {
		w.regs[int(r)*s.cfg.Threads+lane] = v
	}
}

func activateAll(cfg Config, warps int, tmask uint64) func(*Sim) error {
	return func(s *Sim) error {
		for c := 0; c < cfg.Cores; c++ {
			for w := 0; w < warps; w++ {
				if err := s.ActivateWarp(c, w, 0x1000, tmask); err != nil {
					return err
				}
			}
		}
		return nil
	}
}
