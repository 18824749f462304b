package sim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/kernels"
	"repro/internal/ocl"
	"repro/internal/sim"
)

// TestRegistersAfterKernelRun runs every registry kernel on the golden
// 4c8w8t geometry and reads every register of every lane back through Reg
// and FReg. A register no issued instruction names reads 0; the registers
// the kernel writes hold its values, held to a frozen digest per kernel.
func TestRegistersAfterKernelRun(t *testing.T) {
	for _, name := range kernels.Names() {
		t.Run(name, func(t *testing.T) {
			d, err := ocl.NewDevice(sim.DefaultConfig(4, 8, 8))
			if err != nil {
				t.Fatal(err)
			}
			// named[0][r] is integer register r, named[1][r] float register r.
			var named [2][32]bool
			d.SetObserver(func(ev sim.IssueEvent) {
				in := ev.Inst
				named[0][in.Rs1] = named[0][in.Rs1] || in.ReadsIntRs1()
				named[0][in.Rs2] = named[0][in.Rs2] || in.ReadsIntRs2()
				named[0][in.Rd] = named[0][in.Rd] || in.WritesInt()
				named[1][in.Rs1] = named[1][in.Rs1] || in.ReadsFloatRs1()
				named[1][in.Rs2] = named[1][in.Rs2] || in.ReadsFloatRs2()
				named[1][in.Rs3] = named[1][in.Rs3] || in.ReadsFloatRs3()
				named[1][in.Rd] = named[1][in.Rd] || in.WritesFloat()
			})
			spec, err := kernels.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			c, err := spec.Build(d, kernels.Params{Scale: 0.05, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.RunVerified(d, 0, new(kernels.Result)); err != nil {
				t.Fatal(err)
			}
			s := d.Sim()
			cfg := s.Config()
			h := sha256.New()
			written := 0
			for core := 0; core < cfg.Cores; core++ {
				for w := 0; w < cfg.Warps; w++ {
					for lane := 0; lane < cfg.Threads; lane++ {
						for file, read := range []func(int, int, int, uint8) (uint32, error){s.Reg, s.FReg} {
							for r := uint8(0); r < 32; r++ {
								v, err := read(core, w, lane, r)
								if err != nil {
									t.Fatal(err)
								}
								if v != 0 && !named[file][r] {
									t.Fatalf("core %d warp %d lane %d: unnamed register %d of file %d reads %#x", core, w, lane, r, file, v)
								}
								if v != 0 {
									written++
								}
								h.Write(binary.LittleEndian.AppendUint32(nil, v))
							}
						}
					}
				}
			}
			if written == 0 {
				t.Fatal("no register holds a value after the run")
			}
			sim.CheckEngineDigest(t, "", hex.EncodeToString(h.Sum(nil)))
		})
	}
}
