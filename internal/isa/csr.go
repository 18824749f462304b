package isa

// Vortex-style control and status registers. The thread/warp/core identity
// CSRs follow the Vortex machine-mode layout; TMASK and the machine counters
// are read-only views the simulator maintains.
const (
	// CSRThreadID is the lane index of the reading thread within its warp.
	CSRThreadID uint16 = 0xCC0
	// CSRWarpID is the warp index of the reading thread within its core.
	CSRWarpID uint16 = 0xCC1
	// CSRCoreID is the core index of the reading thread.
	CSRCoreID uint16 = 0xCC2
	// CSRTMask is the current thread mask of the reading warp.
	CSRTMask uint16 = 0xCC3
	// CSRNumThreads is the number of hardware threads per warp.
	CSRNumThreads uint16 = 0xFC0
	// CSRNumWarps is the number of hardware warps per core.
	CSRNumWarps uint16 = 0xFC1
	// CSRNumCores is the number of cores in the device.
	CSRNumCores uint16 = 0xFC2
	// CSRCycle is the low word of the core cycle counter.
	CSRCycle uint16 = 0xC00
	// CSRCycleH is the high word of the core cycle counter.
	CSRCycleH uint16 = 0xC80
	// CSRInstRet is the low word of the retired-instruction counter.
	CSRInstRet uint16 = 0xC02
	// CSRInstRetH is the high word of the retired-instruction counter.
	CSRInstRetH uint16 = 0xC82
)

// csrNames are the assembler names of the known CSRs.
var csrNames = [...]struct {
	addr uint16
	name string
}{
	{CSRThreadID, "tid"}, {CSRWarpID, "wid"}, {CSRCoreID, "cid"}, {CSRTMask, "tmask"},
	{CSRNumThreads, "nt"}, {CSRNumWarps, "nw"}, {CSRNumCores, "nc"},
	{CSRCycle, "cycle"}, {CSRCycleH, "cycleh"}, {CSRInstRet, "instret"}, {CSRInstRetH, "instreth"},
}

// CSRName returns a human-readable name for known CSRs, or "" if unknown.
func CSRName(csr uint16) string {
	for _, c := range csrNames {
		if c.addr == csr {
			return c.name
		}
	}
	return ""
}

// CSRByName resolves an assembler CSR name to its address.
func CSRByName(name string) (uint16, bool) {
	for _, c := range csrNames {
		if c.name == name {
			return c.addr, true
		}
	}
	return 0, false
}
