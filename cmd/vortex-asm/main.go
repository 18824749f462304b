// Command vortex-asm assembles a source file for the simulated RV32IMF +
// Vortex ISA and prints the listing (address, machine word, disassembly,
// semantic sections), or disassembles raw little-endian words from a
// binary file.
//
// Usage:
//
//	vortex-asm [-base 0x1000] [-D NAME=value]... file.s
//	vortex-asm -d [-base 0x1000] file.bin
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
)

type defsFlag map[string]int64

func (d defsFlag) String() string { return fmt.Sprint(map[string]int64(d)) }

func (d defsFlag) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want NAME=value, got %q", s)
	}
	v, err := strconv.ParseInt(val, 0, 64)
	if err != nil {
		return err
	}
	d[name] = v
	return nil
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli parses args, prints the listing and returns the process exit status:
// 0 on success, 1 on a failed assembly, 2 on a command-line error.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vortex-asm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "0x1000", "base address")
	disasm := fs.Bool("d", false, "disassemble a raw binary instead of assembling")
	defs := defsFlag{}
	fs.Var(defs, "D", "define a symbol (NAME=value), repeatable")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: vortex-asm [flags] file")
		return 2
	}
	fail := func(what string, err error) int {
		fmt.Fprintln(stderr, what, err)
		return 1
	}
	baseAddr, err := strconv.ParseUint(*base, 0, 32)
	if err != nil {
		return fail("vortex-asm: bad base:", err)
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail("vortex-asm:", err)
	}

	if *disasm {
		for i := 0; i+4 <= len(data); i += 4 {
			w := binary.LittleEndian.Uint32(data[i:])
			pc := uint32(baseAddr) + uint32(i)
			in, err := isa.Decode(w)
			if err != nil {
				fmt.Fprintf(stdout, "%08x: %08x  .word %#x\n", pc, w, w)
				continue
			}
			fmt.Fprintf(stdout, "%08x: %08x  %s\n", pc, w, isa.Disasm(in, pc))
		}
		return 0
	}

	prog, err := asm.Assemble(string(data), uint32(baseAddr), defs)
	if err != nil {
		return fail("vortex-asm:", err)
	}
	fmt.Fprint(stdout, asm.Disassemble(prog))
	fmt.Fprintf(stdout, "# %d words, %d bytes; %d symbols\n", len(prog.Words), prog.Size(), len(prog.Symbols))
	return 0
}
