package kernels

import (
	"sync"
	"testing"

	"repro/internal/ocl"
	"repro/internal/sim"
)

// TestInputMemoSharesBuilds pins that repeated builds of the same (kernel,
// size, seed) share one generated input set, and that cached and uncached
// builds verify identically on the device.
func TestInputMemoSharesBuilds(t *testing.T) {
	ResetInputCache()

	run := func() {
		d, err := ocl.NewDevice(sim.DefaultConfig(1, 2, 4))
		if err != nil {
			t.Fatal(err)
		}
		c, err := BuildVecadd(d, 256, 42)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunVerified(d, 0); err != nil {
			t.Fatal(err)
		}
	}
	run()
	cold := InputCacheStats()
	if cold.Misses == 0 {
		t.Fatal("first build did not populate the input memo")
	}
	run()
	warm := InputCacheStats()
	if warm.Misses != cold.Misses {
		t.Errorf("second build regenerated inputs: %+v -> %+v", cold, warm)
	}
	if warm.Hits <= cold.Hits {
		t.Errorf("second build did not hit the memo: %+v -> %+v", cold, warm)
	}

	// Shared data, not equal copies: the two builds see the same backing
	// arrays.
	a := vecaddInputsFor(256, 42)
	b := vecaddInputsFor(256, 42)
	if &a.a[0] != &b.a[0] {
		t.Error("memo returned distinct input copies")
	}
	// Different seed or size is a different key.
	if c := vecaddInputsFor(256, 43); &c.a[0] == &a.a[0] {
		t.Error("seed not part of the memo key")
	}
	if c := vecaddInputsFor(128, 42); &c.a[0] == &a.a[0] {
		t.Error("size not part of the memo key")
	}
	// Builders of equal parameters keep apart: the key names the builder.
	if r := reluInputsFor(256, 42); &r.in[0] == &a.a[0] {
		t.Error("relu and vecadd share a memo entry")
	}
}

// TestInputMemoConcurrentSingleBuild pins the build-once behaviour of the
// once-per-key map: many goroutines racing on one input key produce exactly
// one build.
func TestInputMemoConcurrentSingleBuild(t *testing.T) {
	ResetInputCache()
	var mu sync.Mutex
	builds := 0
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := memoize(inputKey{kind: "shared"}, func() any {
				mu.Lock()
				builds++
				mu.Unlock()
				return "value"
			})
			if v.(string) != "value" {
				t.Error("wrong value")
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Errorf("builds = %d, want 1", builds)
	}
}

// TestGraphMemoSharedAcrossGCNKernels pins that both GCN registry builds
// share one generated graph per (scale, seed).
func TestGraphMemoSharedAcrossGCNKernels(t *testing.T) {
	g1 := graphFor(512, 3.9, 7)
	g2 := graphFor(512, 3.9, 7)
	if g1 != g2 {
		t.Error("graph memo returned distinct graphs for one key")
	}
	if g3 := graphFor(512, 3.9, 8); g3 == g1 {
		t.Error("seed not part of the graph key")
	}
}
