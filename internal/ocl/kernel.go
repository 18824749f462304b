package ocl

import (
	"fmt"
	"math"
)

// KernelSource is the device code of one kernel: an assembly body executed
// once per work item.
//
// Body ABI (enforced by the generated wrapper, see dispatch.go):
//   - a0 holds the global work-item id (gid); a1 holds the argument block
//     base address. Argument i lives at offset 4*i from a1.
//   - The body may freely use a0-a7, t0-t6 and every float register.
//   - The body must not write s0-s11, sp, ra, gp or tp (wrapper state), nor
//     name the wrapper's launch symbols NTASKS, TPC, TPW, WT, GWS and LWS.
//   - Control flow inside the body must reconverge (vx_split/vx_join for
//     divergent conditions); the body falls through its end.
//
// Defs are extra assembler symbols (compile-time constants such as matrix
// dimensions), available in Body expressions.
type KernelSource struct {
	Name string
	Body string
	Defs map[string]int64
}

// Validate performs basic checks.
func (k KernelSource) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("ocl: kernel without a name")
	}
	if k.Body == "" {
		return fmt.Errorf("ocl: kernel %q has an empty body", k.Name)
	}
	return nil
}

// argKind discriminates kernel argument slots.
type argKind uint8

const (
	argBuffer argKind = iota
	argWord
)

type argVal struct {
	kind argKind
	word uint32
}

// Kernel is a kernel with bound arguments, ready to enqueue.
type Kernel struct {
	src  KernelSource
	args []argVal
}

// NewKernel wraps a source for argument binding.
func NewKernel(src KernelSource) (*Kernel, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	return &Kernel{src: src}, nil
}

// Name returns the kernel name.
func (k *Kernel) Name() string { return k.src.Name }

// SetArgs binds the argument list in order. Accepted types: Buffer (device
// address), int, uint32, int32 and float32 (by value).
func (k *Kernel) SetArgs(args ...any) error {
	k.args = k.args[:0]
	for i, a := range args {
		switch v := a.(type) {
		case Buffer:
			k.args = append(k.args, argVal{kind: argBuffer, word: v.addr})
		case int:
			if int64(v) > math.MaxInt32 || int64(v) < math.MinInt32 {
				return fmt.Errorf("ocl: arg %d: int %d exceeds 32 bits", i, v)
			}
			k.args = append(k.args, argVal{kind: argWord, word: uint32(int32(v))})
		case int32:
			k.args = append(k.args, argVal{kind: argWord, word: uint32(v)})
		case uint32:
			k.args = append(k.args, argVal{kind: argWord, word: v})
		case float32:
			k.args = append(k.args, argVal{kind: argWord, word: math.Float32bits(v)})
		default:
			return fmt.Errorf("ocl: arg %d: unsupported type %T", i, a)
		}
	}
	return nil
}

// NumArgs returns the number of bound arguments.
func (k *Kernel) NumArgs() int { return len(k.args) }
