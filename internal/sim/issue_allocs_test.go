package sim_test

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/ocl"
	"repro/internal/sim"
)

// TestIssuePathZeroAllocs pins the issue path at zero allocations: one
// launch of a registry kernel is recorded through the observer — every
// issued instruction by pc and each warp's activation (its first issue's pc
// and thread mask) — and replayed on the bare simulator. Once warm, a
// replay — Reset, LoadProgram (a full decode, since Reset drops the
// program), ActivateWarp and Run — allocates nothing.
func TestIssuePathZeroAllocs(t *testing.T) {
	d, err := ocl.NewDevice(sim.DefaultConfig(4, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := kernels.ByName("gcn_aggr")
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Build(d, kernels.Params{Scale: 0.05, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Launches) != 1 {
		t.Fatalf("%s has %d launches, the recorder handles one", spec.Name, len(c.Launches))
	}

	type activation struct {
		core, warp int
		pc         uint32
		mask       uint64
	}
	insts := map[uint32]isa.Inst{}
	seen := map[[2]int]bool{}
	var acts []activation
	d.SetObserver(func(ev sim.IssueEvent) {
		insts[ev.PC] = ev.Inst
		if k := [2]int{ev.Core, ev.Warp}; !seen[k] {
			seen[k] = true
			acts = append(acts, activation{ev.Core, ev.Warp, ev.PC, ev.Mask})
		}
	})
	if _, err := c.Run(d, 0); err != nil {
		t.Fatal(err)
	}
	d.SetObserver(nil)
	s := d.Sim()
	want := s.TotalStats().Issued

	// The replayed program spans the executed pcs; words never executed
	// stay OpInvalid, which the replay never fetches.
	lo, hi := ^uint32(0), uint32(0)
	for pc := range insts {
		lo, hi = min(lo, pc), max(hi, pc)
	}
	prog := make([]isa.Inst, (hi-lo)/4+1)
	for pc, in := range insts {
		prog[(pc-lo)/4] = in
	}

	replay := func() {
		s.Reset()
		if err := s.LoadProgram(lo, prog); err != nil {
			t.Fatal(err)
		}
		for _, a := range acts {
			if err := s.ActivateWarp(a.core, a.warp, a.pc, a.mask); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	replay()
	if got := s.TotalStats().Issued; got != want {
		t.Fatalf("replay issued %d instructions, the recorded launch %d", got, want)
	}
	if n := testing.AllocsPerRun(3, replay); n != 0 {
		t.Errorf("warm Reset + re-run of %s allocates %v times, want 0", spec.Name, n)
	}
}
