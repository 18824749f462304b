// Command vortex drives the simulated Vortex-like GPGPU. "vortex help"
// lists its subcommands — run, sweep (with merge), trace and asm — and
// "vortex <subcommand> -h" the flags of one:
//
//	vortex run -config 4c8w16t -kernel sgemm -scale 0.1
//	vortex sweep -configs 4 -kernels vecadd -scale 0.05
//	vortex sweep -grid 2c2w4t -kernels saxpy -scale 0.05 -oracle
//
// Every subcommand exits 0 on success, 1 on a failed run and 2 on a
// command-line error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// commands lists the subcommands in help order.
var commands = []struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) int
}{
	{"run", "run one kernel on one device configuration and print the launch report", runCmd},
	{"sweep", "regenerate Figure 2 over the configuration grid (also: merge)", sweepCmd},
	{"trace", "regenerate Figure 1: issue waveforms of a kernel under several lws", traceCmd},
	{"asm", "assemble device code, or disassemble it with -d", asmCmd},
}

// cli runs the subcommand args name and returns the process exit status.
func cli(args []string, stdout, stderr io.Writer) int {
	for _, c := range commands {
		if len(args) > 0 && args[0] == c.name {
			return c.run(args[1:], stdout, stderr)
		}
	}
	if len(args) > 0 && args[0] != "help" && !strings.HasPrefix(args[0], "-") {
		fmt.Fprintf(stderr, "vortex: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: vortex <subcommand> [flags]  (vortex <subcommand> -h lists its flags)\n\nsubcommands:")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-6s %s\n", c.name, c.summary)
	}
	return 2
}

// body runs a subcommand once its flags are parsed.
type body func(stdout, stderr io.Writer) error

// usageError is a command-line error a body finds: it exits 2, after the
// flag listing.
type usageError string

func (e usageError) Error() string { return string(e) }

// subcommand returns the subcommand name: setup registers its flags and
// returns its body. takesArgs says the body reads positional arguments
// from fs.Args(); a subcommand that takes none refuses any, since the flag
// parser stops at the first and would drop every flag after it. The result
// exits 0 after -h or a body that succeeds, 2 after a bad flag, a stray
// argument or a usageError, and 1 after any other error, which it reports
// under the command's first word ("vortex sweep: ...").
func subcommand(name string, takesArgs bool, setup func(fs *flag.FlagSet) body) func(args []string, stdout, stderr io.Writer) int {
	return func(args []string, stdout, stderr io.Writer) int {
		fs := flag.NewFlagSet("vortex "+name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		run := setup(fs)
		if err := fs.Parse(args); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return 0
			}
			return 2
		}
		var err error
		if !takesArgs && fs.NArg() > 0 {
			err = usageError(fmt.Sprintf("vortex %s: unexpected argument %q", name, fs.Arg(0)))
		} else {
			err = run(stdout, stderr)
		}
		var usage usageError
		switch {
		case err == nil:
			return 0
		case errors.As(err, &usage):
			fmt.Fprintln(stderr, err)
			fs.PrintDefaults()
			return 2
		}
		prefix, _, _ := strings.Cut(name, " ")
		fmt.Fprintf(stderr, "vortex %s: %v\n", prefix, err)
		return 1
	}
}

// simFlags is the flag group the simulating subcommands share: -config and
// -kernel, -scale and -seed, and one flag per grid axis. Each subcommand
// registers the members it takes, with its own defaults; check is the one
// path that validates them and resolves what they name. A campaign takes
// the axis flags as lists and no device; vortex run takes one device at one
// grid point.
type simFlags struct {
	config, kernel *string
	scale          *float64
	seed           *int64
	axes           sweep.AxisFlags
	axisLists      bool // the axis flags take comma-separated lists

	// Resolved by check.
	params   kernels.Params
	hw       core.HWInfo
	cfg      sim.Config // hw's device, at point when the axes are registered
	spec     kernels.Spec
	axisVals map[string][]string // with axisLists: every axis's values
	point    []string            // without: one value per sweep.Axes entry
}

// addDevice registers -config and -kernel: one device configuration and
// one registry kernel.
func (f *simFlags) addDevice(fs *flag.FlagSet, config, kernel string) {
	f.config = fs.String("config", config, "device configuration (paper notation)")
	f.kernel = fs.String("kernel", kernel, "kernel (registry name)")
}

// addWorkload registers -scale, -seed and the axis flags. The axis flags
// take one value each when listUsage is empty, and otherwise
// comma-separated lists, with listUsage leading their help.
func (f *simFlags) addWorkload(fs *flag.FlagSet, scale float64, listUsage string) {
	f.scale = fs.Float64("scale", scale, "workload scale (1.0 = paper size)")
	f.seed = fs.Int64("seed", 42, "input seed")
	f.axes = sweep.RegisterAxisFlags(fs, listUsage)
	f.axisLists = listUsage != ""
}

// check validates the registered flags in one order — the scale, the
// configuration name, the kernel name, then the axes. A refusal is a
// usageError: it names a flag value no run can take.
func (f *simFlags) check() (err error) {
	defer func() {
		if err != nil {
			err = usageError(err.Error())
		}
	}()
	if f.scale != nil {
		if err := kernels.CheckScale(*f.scale); err != nil {
			return fmt.Errorf("-%w", err)
		}
		f.params = kernels.Params{Scale: *f.scale, Seed: *f.seed}
	}
	if f.config != nil {
		if f.hw, err = core.ParseName(*f.config); err != nil {
			return err
		}
		f.cfg = sim.DefaultConfig(f.hw.Cores, f.hw.Warps, f.hw.Threads)
		if f.spec, err = kernels.ByName(*f.kernel); err != nil {
			return err
		}
	}
	switch {
	case f.axes == nil:
	case f.axisLists:
		f.axisVals, err = f.axes.Values()
	default:
		if f.point, err = f.axes.Point(); err == nil {
			f.cfg, err = sweep.ApplyPoint(f.cfg, f.point)
		}
	}
	return err
}

// startCPUProfile profiles the process into path until stop is called; an
// empty path profiles nothing.
func startCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() { pprof.StopCPUProfile(); f.Close() }, nil
}

// writeFile creates path, and its directory, and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
