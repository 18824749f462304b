package sweep

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ocl"
	"repro/internal/sim"
)

// axisSamples holds one non-default value per grid axis; a new Axes entry
// needs one here.
var axisSamples = map[string]string{
	"sched":    "gto",
	"mshrs":    "4",
	"l1":       "8k2w",
	"prefetch": "nextline",
}

// TestGridAxes checks every entry of the grid-axis table: its default
// round-trips through parse and is the sim.DefaultConfig value, a
// non-default sample changes the config, a garbage value is refused, a
// ConfigTemplate that sets the sample is refused, and a repeated value is
// refused.
func TestGridAxes(t *testing.T) {
	hw := core.HWInfo{Cores: 1, Warps: 2, Threads: 2}
	def := sim.DefaultConfig(hw.Cores, hw.Warps, hw.Threads)
	for _, a := range Axes {
		t.Run(a.Name, func(t *testing.T) {
			if got, err := a.parse(a.Default); err != nil || got != a.Default {
				t.Errorf("parse(default %q) = %q, %v", a.Default, got, err)
			}
			if cfg, err := a.write(def, a.Default); err != nil || cfg != def {
				t.Errorf("applying the default %q changed sim.DefaultConfig (err %v)", a.Default, err)
			}
			sample, ok := axisSamples[a.Name]
			if !ok {
				t.Fatalf("no non-default sample value for axis %s", a.Name)
			}
			cfg, err := a.write(def, sample)
			if err != nil || cfg == def {
				t.Errorf("applying %q left the config unchanged (err %v)", sample, err)
			}
			if _, err := a.parse("bogus"); err == nil || !strings.Contains(err.Error(), "bad "+a.Name+" value") {
				t.Errorf("parse(bogus): err = %v", err)
			}

			opts := Options{Configs: []core.HWInfo{hw}, Kernels: []string{"vecadd"}, Mappers: []core.Mapper{core.Auto{}},
				Scale: 0.05, ConfigTemplate: func(core.HWInfo) sim.Config { return cfg }}
			grid, err := TaskGrid(opts)
			if err != nil {
				t.Fatal(err)
			}
			rec := RunTask(opts, ocl.NewDevicePool(1), grid[0])
			if want := "sets the " + a.Name + " knob"; !strings.Contains(rec.Err, want) {
				t.Errorf("template setting %s=%s: record err %q, want %q", a.Name, sample, rec.Err, want)
			}

			opts.ConfigTemplate = nil
			opts.Axes = map[string][]string{a.Name: {sample, sample}}
			if _, err := TaskGrid(opts); err == nil || !strings.Contains(err.Error(), "duplicate "+a.Name+" entry "+sample) {
				t.Errorf("repeated %s value: err = %v", a.Name, err)
			}
		})
	}
}
