package sim

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
)

// BenchmarkReset times Reset of a Sim of the grid's widest point, of one
// built at that shape and reshaped to 4c4w4t — as a pooled device that
// has grown to the widest point is left by a smaller task — and of a
// 4c4w4t Sim. Reset visits the shape a Sim has, not the capacity it
// keeps, so the reshaped Sim should cost what the 4c4w4t one does. Each
// has run one ecall on every warp first, as the campaign benchmark's
// sim.reset_us probe does, whose eight Resets cannot resolve a 10 %
// change.
func BenchmarkReset(b *testing.B) {
	must := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	wide, small := DefaultConfig(64, 32, 32), DefaultConfig(4, 4, 4)
	for _, bc := range []struct {
		name         string
		built, shape Config
	}{
		{"64c32w32t", wide, wide},
		{"64c32w32t_to_4c4w4t", wide, small},
		{"4c4w4t", small, small},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p, err := asm.Assemble("\tecall\n", 0x1000, nil)
			must(err)
			memory := mem.NewMemory(1 << 20)
			hier, err := mem.NewHierarchy(bc.built.Cores, bc.built.Mem)
			must(err)
			s, err := New(bc.built, memory, hier)
			must(err)
			must(hier.Reshape(bc.shape.Cores, bc.shape.Mem))
			must(s.Reshape(bc.shape, memory, hier))
			must(s.LoadProgram(p.Base, p.Insts))
			for c := range bc.shape.Cores {
				for w := range bc.shape.Warps {
					must(s.ActivateWarp(c, w, p.Base, s.fullMask))
				}
			}
			must(s.Run())
			b.ResetTimer()
			for range b.N {
				s.Reset()
			}
		})
	}
}
