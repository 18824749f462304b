package ocl

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/sim"
)

// vecsubSrc is vecadd with a subtraction: a second kernel of the same
// arguments and the same wrapper shapes.
var vecsubSrc = KernelSource{Name: "vecsub", Body: strings.Replace(vecaddSrc.Body, "fadd.s", "fsub.s", 1)}

// coldLaunch runs src at (gws, lws) on a new device with no launch program
// built yet, so its program is assembled for exactly that geometry.
func coldLaunch(t *testing.T, cfg sim.Config, src KernelSource, gws, lws int) (*LaunchResult, []float32) {
	t.Helper()
	ResetProgramCache()
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, out, err := launchBinary(d, src, gws, lws)
	if err != nil {
		t.Fatal(err)
	}
	return res, out
}

// TestProgramCacheReusesShape pins the shape contract: a second geometry
// of the same shape reuses the kernel's program, on any device, and runs
// exactly as a program built for that geometry; a geometry of another
// shape builds a second program.
func TestProgramCacheReusesShape(t *testing.T) {
	cfg := sim.DefaultConfig(1, 2, 4)
	wantRes, wantOut := coldLaunch(t, cfg, vecaddSrc, 256, 8)

	ResetProgramCache()
	d1, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	launchOnce(t, d1, 256, 4)
	if s := ProgramCacheStats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("first launch: counters %+v, want one program built", s)
	}
	d2, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, out := launchOnce(t, d2, 256, 8) // lws 8: new geometry, same shape
	if s := ProgramCacheStats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("same-shape geometry: counters %+v, want the program reused", s)
	}
	if !reflect.DeepEqual(res, wantRes) {
		t.Errorf("re-encoded program changed the launch report:\ncold %+v\nwarm %+v", wantRes, res)
	}
	if !reflect.DeepEqual(out, wantOut) {
		t.Error("re-encoded program changed the device output")
	}

	// gws 4096 needs lui+addi for GWS (and NTASKS, TPC at lws 1): a new shape.
	launchOnce(t, d2, 4096, 1)
	if s := ProgramCacheStats(); s.Misses != 2 {
		t.Errorf("new shape: counters %+v, want a second program", s)
	}

	// Relaunching the resident program builds nothing, unless the
	// programs were dropped: then the launch is cold again.
	launchOnce(t, d2, 4096, 1)
	if s := ProgramCacheStats(); s.Misses != 2 || s.Hits != 2 {
		t.Errorf("resident relaunch: counters %+v, want a hit", s)
	}
	ResetProgramCache()
	launchOnce(t, d2, 4096, 1)
	if s := ProgramCacheStats(); s.Misses != 1 {
		t.Errorf("after ResetProgramCache: counters %+v, want the program rebuilt", s)
	}
}

// TestProgramCacheKeyedByBodyAndDefs pins that kernels sharing a name but
// differing in body or defines cannot alias, and that each builds its own
// program.
func TestProgramCacheKeyedByBodyAndDefs(t *testing.T) {
	ResetProgramCache()
	cfg := sim.DefaultConfig(1, 2, 2)
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := d.AllocFloat32(64)
	if err != nil {
		t.Fatal(err)
	}

	store := func(name, body string, defs map[string]int64) []float32 {
		k, err := NewKernel(KernelSource{Name: name, Body: body, Defs: defs})
		if err != nil {
			t.Fatal(err)
		}
		if err := k.SetArgs(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := d.EnqueueNDRange(k, 64, 0); err != nil {
			t.Fatal(err)
		}
		out, err := d.ReadFloat32(buf, 64)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	body := `
	lw   t3, 0(a1)
	slli t4, a0, 2
	add  t3, t3, t4
	li   t5, KVAL
	fcvt.s.w f0, t5
	fsw  f0, 0(t3)
`
	one := store("kv", body, map[string]int64{"KVAL": 1})
	two := store("kv", body, map[string]int64{"KVAL": 2})
	if one[0] != 1 || two[0] != 2 {
		t.Fatalf("defs aliased in the cache: got %v then %v", one[0], two[0])
	}
	three := store("kv", strings.Replace(body, "li   t5, KVAL", "li   t5, KVAL+1", 1), map[string]int64{"KVAL": 2})
	if three[0] != 3 {
		t.Fatalf("bodies aliased in the cache: got %v", three[0])
	}
	if again := store("kv", body, map[string]int64{"KVAL": 1}); again[0] != 1 {
		t.Fatalf("defs aliased on a second visit: got %v", again[0])
	}
	// A body that fails to assemble registers nothing and fails each time.
	bad, err := NewKernel(KernelSource{Name: "kv", Body: "\tli t5, NOSUCH\n"})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := d.EnqueueNDRange(bad, 64, 0); err == nil {
			t.Fatal("undefined symbol accepted")
		}
	}
	if s := ProgramCacheStats(); s.Misses != 3 || s.Hits != 1 {
		t.Errorf("counters %+v, want 3 programs built and 1 reused", s)
	}
}

// TestResidentProgram holds the device's resident-program rule: one device,
// never Reset, launches a kernel at geometry A, then B of the same shape
// (its program rewritten in the device's arrays), then A again, then a
// second kernel. Each launch report and output must equal the same
// sequence on a fresh device that takes every program in new arrays, so
// no reload can be skipped or served stale.
func TestResidentProgram(t *testing.T) {
	cfg := sim.DefaultConfig(2, 2, 4)
	steps := []struct {
		src      KernelSource
		gws, lws int
	}{
		{vecaddSrc, 256, 4},
		{vecaddSrc, 200, 8},
		{vecaddSrc, 256, 4},
		{vecsubSrc, 256, 4},
	}
	ResetProgramCache()
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range steps {
		res, out, err := launchBinary(d, s.src, s.gws, s.lws)
		if err != nil {
			t.Fatal(err)
		}
		ref.prog, ref.resident = asm.Program{}, nil
		wantRes, wantOut, err := launchBinary(ref, s.src, s.gws, s.lws)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Errorf("step %d (%s gws=%d lws=%d): launch report\n got %+v\nwant %+v", i, s.src.Name, s.gws, s.lws, res, wantRes)
		}
		if !reflect.DeepEqual(out, wantOut) {
			t.Errorf("step %d (%s gws=%d lws=%d): output differs", i, s.src.Name, s.gws, s.lws)
		}
	}
	if s := ProgramCacheStats(); s.Misses != 2 {
		t.Errorf("counters %+v, want one program per kernel", s)
	}
}

// TestEnqueueAllocs pins what a warm launch allocates: at a new geometry of
// a shape already built, on a device never Reset, EnqueueInto writes the
// program into the device's arrays, decodes it into the simulator's and
// writes the report into the caller's storage, so it allocates nothing;
// EnqueueNDRange allocates only the report it returns.
func TestEnqueueAllocs(t *testing.T) {
	d, err := NewDevice(sim.DefaultConfig(2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	var bufs [3]Buffer
	for i := range bufs {
		if bufs[i], err = d.AllocFloat32(256); err != nil {
			t.Fatal(err)
		}
	}
	k, err := NewKernel(vecaddSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgs(bufs[0], bufs[1], bufs[2]); err != nil {
		t.Fatal(err)
	}
	lws := 1
	var res LaunchResult
	launch := func() {
		lws = lws%16 + 1 // every launch a new geometry, all of one shape
		if err := d.EnqueueInto(k, 256, lws, &res); err != nil {
			t.Fatal(err)
		}
	}
	for range 16 {
		launch()
	}
	before := ProgramCacheStats()
	if allocs := testing.AllocsPerRun(50, launch); allocs != 0 {
		t.Errorf("%v allocations per warm launch, want 0", allocs)
	}
	report := func() {
		lws = lws%16 + 1
		if _, err := d.EnqueueNDRange(k, 256, lws); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(50, report); allocs != 1 {
		t.Errorf("%v allocations per warm EnqueueNDRange, want 1 (the launch report)", allocs)
	}
	if after := ProgramCacheStats(); after.Misses != before.Misses {
		t.Errorf("warm launches built programs: %+v -> %+v", before, after)
	}
}

// TestProgramCacheConcurrent races fresh devices on one kernel from an
// empty registry: each of the three shapes' programs is built once, and
// every launch reports what it reports alone. Then workers launch
// distinct geometries of one shape at once, each re-encoding its own copy
// of the shared program outside the registry lock: the program itself
// must stay as built.
func TestProgramCacheConcurrent(t *testing.T) {
	cfg := sim.DefaultConfig(2, 2, 4)
	// 256/4, 200/8, 256/1 and 96/3 share a shape; at gws 4096, lws 1 puts
	// TPC past 2047 and lws 2 does not.
	geoms := [][2]int{{256, 4}, {4096, 1}, {200, 8}, {4096, 2}}
	shared := [][2]int{{256, 4}, {200, 8}, {256, 1}, {96, 3}}
	want := map[[2]int]*LaunchResult{}
	for _, g := range append(geoms, shared...) {
		want[g], _ = coldLaunch(t, cfg, vecaddSrc, g[0], g[1])
	}
	race := func(geoms [][2]int) {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range geoms {
					g := geoms[(i+w)%len(geoms)]
					d, err := NewDevice(cfg)
					if err != nil {
						t.Error(err)
						return
					}
					res, _, err := launchBinary(d, vecaddSrc, g[0], g[1])
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(res, want[g]) {
						t.Errorf("worker %d, gws=%d lws=%d: launch report differs from a lone cold launch", w, g[0], g[1])
					}
				}
			}(w)
		}
		wg.Wait()
	}
	ResetProgramCache()
	race(geoms)
	if s := ProgramCacheStats(); s.Misses != 3 {
		t.Errorf("counters %+v, want one program per shape", s)
	}

	g := launchGeometry(256, 4, cfg)
	e, err := shapeProgram(vecaddSrc, &g)
	if err != nil {
		t.Fatal(err)
	}
	words, insts := slices.Clone(e.prog.Words), slices.Clone(e.prog.Insts)
	race(shared)
	if !slices.Equal(e.prog.Words, words) || !slices.Equal(e.prog.Insts, insts) {
		t.Error("concurrent launches wrote into their shape's shared program")
	}
	if s := ProgramCacheStats(); s.Misses != 3 {
		t.Errorf("counters %+v after same-shape launches, want no program built", s)
	}
}

// TestLaunchRefusesValueOutsideLI pins that a launch value li cannot hold
// is refused, never truncated: gws = lws = 2^32 has the shape of gws = lws
// = 1 (its low 32 bits are 0), and must fail on a cold registry and after
// a warm launch of that shape, which the device then still runs.
func TestLaunchRefusesValueOutsideLI(t *testing.T) {
	ResetProgramCache()
	d, err := NewDevice(sim.DefaultConfig(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(KernelSource{Name: "nopk", Body: "\tnop\n"})
	if err != nil {
		t.Fatal(err)
	}
	const huge = 1 << 32
	if _, err := d.EnqueueNDRange(k, huge, huge); err == nil {
		t.Error("cold registry: gws = lws = 2^32 accepted")
	}
	for range 2 {
		if _, err := d.EnqueueNDRange(k, 1, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := d.EnqueueNDRange(k, huge, huge); err == nil {
			t.Error("warm registry: gws = lws = 2^32 accepted")
		}
	}
}
