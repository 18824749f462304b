package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
)

// asmCmd assembles a source file for the simulated RV32IMF + Vortex ISA and
// prints the listing (address, machine word, disassembly, semantic
// sections), or with -d disassembles raw little-endian words from a binary
// file.
var asmCmd = subcommand("asm", func(fs *flag.FlagSet) body {
	base := fs.String("base", "0x1000", "base address")
	disasm := fs.Bool("d", false, "disassemble a raw binary instead of assembling")
	defs := map[string]int64{}
	fs.Func("D", "define a symbol (NAME=value), repeatable", func(s string) error {
		name, val, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("want NAME=value, got %q", s)
		}
		v, err := strconv.ParseInt(val, 0, 64)
		defs[name] = v
		return err
	})
	return func(stdout, _ io.Writer) error {
		if fs.NArg() != 1 {
			return usageError("usage: vortex asm [flags] file")
		}
		baseAddr, err := strconv.ParseUint(*base, 0, 32)
		if err != nil {
			return fmt.Errorf("bad base: %w", err)
		}
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		if *disasm {
			for i := 0; i+4 <= len(data); i += 4 {
				w := binary.LittleEndian.Uint32(data[i:])
				pc := uint32(baseAddr) + uint32(i)
				if in, err := isa.Decode(w); err == nil {
					fmt.Fprintf(stdout, "%08x: %08x  %s\n", pc, w, isa.Disasm(in, pc))
				} else {
					fmt.Fprintf(stdout, "%08x: %08x  .word %#x\n", pc, w, w)
				}
			}
			return nil
		}
		prog, err := asm.Assemble(string(data), uint32(baseAddr), defs)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, asm.Disassemble(prog))
		fmt.Fprintf(stdout, "# %d words, %d bytes; %d symbols\n", len(prog.Words), prog.Size(), len(prog.Symbols))
		return nil
	}
})
