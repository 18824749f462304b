package sweep

import (
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Axis is one policy axis of the campaign grid: a simulator knob swept
// alongside the device configuration, kernel and mapper. Its entry in Axes
// is the only place the knob is named, defaulted, parsed and written into a
// sim.Config; Options defaulting and validation, task enumeration and keys,
// the checkpoint meta, Merge, the CSV columns and the command-line flags all
// iterate over the table. Values travel in their canonical spelling.
type Axis struct {
	Name    string // CSV column and command-line flag
	Default string // canonical value of the knob in sim.DefaultConfig
	Usage   string // flag help for one value

	// apply and set take and return values rather than pointers: a pointer
	// passed through a function value escapes, and would cost every task a
	// heap copy of its sim.Config and Record.
	apply func(cfg sim.Config, v string) (sim.Config, error) // the one write into sim.Config
	read  func(cfg sim.Config) string                        // the knob's canonical value in cfg
	meta  func(m *Meta) *string                              // the comma-joined Meta field
	get   func(r Record) string                              // the Record field, canonically spelled
	set   func(r Record, v string) Record                    // its write, from a canonical value
}

// Axes is the grid-axis table. Its order is the grid's nesting (the last
// axis varies fastest) and the order of the task key and the CSV columns;
// checkpoint v4 freezes it.
var Axes = []Axis{
	{
		Name: "sched", Default: "rr", Usage: "warp-scheduler policy (rr, gto, oldest, 2lev)",
		apply: func(c sim.Config, v string) (_ sim.Config, err error) {
			c.Sched, err = sim.ParseSchedPolicy(v)
			return c, err
		},
		read: func(c sim.Config) string { return c.Sched.String() },
		meta: func(m *Meta) *string { return &m.Scheds },
		get:  func(r Record) string { return r.Sched },
		set:  func(r Record, v string) Record { r.Sched = v; return r },
	},
	{
		Name: "mshrs", Default: "0", Usage: "outstanding-miss bound per L1 and per L2 bank (0 = unbounded)",
		apply: func(c sim.Config, v string) (sim.Config, error) {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return c, fmt.Errorf("want a non-negative count, 0 = unbounded")
			}
			c.Mem.L1.MSHRs, c.Mem.L2.MSHRs = n, n
			return c, nil
		},
		read: func(c sim.Config) string { return strconv.Itoa(c.Mem.L1.MSHRs) },
		meta: func(m *Meta) *string { return &m.MSHRs },
		get:  func(r Record) string { return strconv.Itoa(r.MSHRs) },
		set:  func(r Record, v string) Record { r.MSHRs, _ = strconv.Atoi(v); return r },
	},
	{
		Name: "l1", Default: mem.DefaultL1Geometry(), Usage: "L1 geometry (<size-KiB>k<ways>w, e.g. 16k4w)",
		apply: func(c sim.Config, v string) (_ sim.Config, err error) {
			c.Mem.L1.SizeBytes, c.Mem.L1.Ways, err = mem.ParseL1Geometry(v)
			return c, err
		},
		read: func(c sim.Config) string { return mem.FormatL1Geometry(c.Mem.L1.SizeBytes, c.Mem.L1.Ways) },
		meta: func(m *Meta) *string { return &m.L1Geoms },
		get:  func(r Record) string { return r.L1 },
		set:  func(r Record, v string) Record { r.L1 = v; return r },
	},
	{
		Name: "prefetch", Default: "off", Usage: "L1 prefetch policy (off, nextline)",
		apply: func(c sim.Config, v string) (_ sim.Config, err error) {
			c.Mem.Prefetch, err = mem.ParsePrefetchPolicy(v)
			return c, err
		},
		read: func(c sim.Config) string { return c.Mem.Prefetch.String() },
		meta: func(m *Meta) *string { return &m.Prefetch },
		get:  func(r Record) string { return r.Prefetch },
		set:  func(r Record, v string) Record { r.Prefetch = v; return r },
	},
}

// values returns the values axes (in Options.Axes form) sweeps on a: the
// listed ones, or else the default.
func (a Axis) values(axes map[string][]string) []string {
	if vs := axes[a.Name]; len(vs) > 0 {
		return vs
	}
	return []string{a.Default}
}

// write returns cfg with v applied, naming the axis in a refusal.
func (a Axis) write(cfg sim.Config, v string) (sim.Config, error) {
	cfg, err := a.apply(cfg, v)
	if err != nil {
		return cfg, fmt.Errorf("bad %s value %q: %w", a.Name, v, err)
	}
	return cfg, nil
}

// parse returns the canonical spelling of v, or refuses a value the axis
// cannot take.
func (a Axis) parse(v string) (string, error) {
	cfg, err := a.write(sim.Config{}, v)
	if err != nil {
		return "", err
	}
	return a.read(cfg), nil
}

// check refuses a value spelled other than canonically, or repeated: either
// would let one grid cell carry two task keys, or two cells one.
func (a Axis) check(vs []string) error {
	for i, v := range vs {
		c, err := a.parse(v)
		if err != nil {
			return err
		}
		if c != v {
			return fmt.Errorf("bad %s value %q: spell it %s", a.Name, v, c)
		}
		if slices.Contains(vs[:i], v) {
			return fmt.Errorf("duplicate %s entry %s: each value appears on the axis once", a.Name, v)
		}
	}
	return nil
}

// setBy reports whether cfg moves the axis's knob off its default. A
// ConfigTemplate that does so is refused: the grid would silently override
// it, and the checkpoint meta could not record it.
func (a Axis) setBy(cfg sim.Config) bool {
	reset, _ := a.apply(cfg, a.Default) // the default always applies
	return reset != cfg
}

// ApplyPoint returns cfg with one grid point — a canonical value per Axes
// entry, in table order — written into it.
func ApplyPoint(cfg sim.Config, point []string) (sim.Config, error) {
	for i, a := range Axes {
		var err error
		if cfg, err = a.write(cfg, point[i]); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// Points lists the grid points axes (in Options.Axes form) spans, in
// canonical order.
func Points(axes map[string][]string) [][]string {
	g := make([][]string, len(Axes))
	for i, a := range Axes {
		g[i] = a.values(axes)
	}
	var out [][]string
	eachCell(g, func(_ []int, cell []string) { out = append(out, slices.Clone(cell)) })
	return out
}

// eachCell is the grid odometer: it calls fn with every cell of the grid
// whose dimensions are g — as indexes and as values — in canonical order,
// the last dimension varying fastest. fn must not retain ix or cell, which
// are reused.
func eachCell(g [][]string, fn func(ix []int, cell []string)) {
	for _, dim := range g {
		if len(dim) == 0 {
			return
		}
	}
	ix := make([]int, len(g))
	cell := make([]string, len(g))
	for {
		for d, i := range ix {
			cell[d] = g[d][i]
		}
		fn(ix, cell)
		d := len(g) - 1
		for ; d >= 0; d-- {
			if ix[d]++; ix[d] < len(g[d]) {
				break
			}
			ix[d] = 0
		}
		if d < 0 {
			return
		}
	}
}

// AxisFlags holds the command-line flags of the grid axes, by axis name.
type AxisFlags map[string]*string

// RegisterAxisFlags registers one string flag per grid axis on fs, named
// and defaulted by the table; usagePrefix leads each help text.
func RegisterAxisFlags(fs *flag.FlagSet, usagePrefix string) AxisFlags {
	f := AxisFlags{}
	for _, a := range Axes {
		f[a.Name] = fs.String(a.Name, a.Default, usagePrefix+a.Usage)
	}
	return f
}

// Values parses every flag as a comma-separated list of values, in
// Options.Axes form, refusing a bad or repeated value.
func (f AxisFlags) Values() (map[string][]string, error) {
	axes := make(map[string][]string, len(Axes))
	for _, a := range Axes {
		vs := strings.Split(*f[a.Name], ",")
		for i, v := range vs {
			var err error
			if vs[i], err = a.parse(strings.TrimSpace(v)); err != nil {
				return nil, err
			}
		}
		if err := a.check(vs); err != nil {
			return nil, err
		}
		axes[a.Name] = vs
	}
	return axes, nil
}

// Point parses every flag as a single value: the grid point they name.
func (f AxisFlags) Point() ([]string, error) {
	point := make([]string, len(Axes))
	for i, a := range Axes {
		var err error
		if point[i], err = a.parse(*f[a.Name]); err != nil {
			return nil, err
		}
	}
	return point, nil
}
