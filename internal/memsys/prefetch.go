package memsys

// Hardware prefetch: tiny go:noescape assembly stubs (PREFETCHT0 on
// amd64, PRFM PLDL1KEEP on arm64; see prefetch_*.s) that turn the
// paper's software prefetches into real instructions. Indexes on a
// Native model call the two functions below directly with the real
// addresses of their nodes and buffers; no Model method ever does — the
// Hierarchy's Prefetch models a prefetch of a simulated address, the
// Native model's only counts one. Which implementation a build gets
// (assembly, or the no-op stubs of prefetch_generic.go on other
// architectures and under -tags purego) is decided at compile time.
//
// A prefetch instruction is a non-binding hint to the memory system:
// it never faults, so the stubs are safe on any address, mapped or
// not. That property is load-bearing here — a caller that passes a
// simulated address by mistake wastes an instruction but cannot
// crash.

// hwLineSize is the stride of the hardware prefetch stubs. Both
// supported targets (amd64, arm64 server cores) use 64-byte cache
// lines; the stubs stride 64 bytes regardless of the simulated
// Config.LineSize, because they act on the real machine.
const hwLineSize = 64

// HardwarePrefetch issues one prefetch instruction for the real cache
// line containing addr (a no-op on builds without a stub). addr is a
// real virtual address, e.g. uintptr(unsafe.Pointer(&x)).
func HardwarePrefetch(addr uintptr) { prefetchT0(addr) }

// HardwarePrefetchRange issues one prefetch instruction per real
// 64-byte cache line overlapped by [addr, addr+size) (a no-op on
// builds without a stub, or when size <= 0).
func HardwarePrefetchRange(addr uintptr, size int) {
	if size <= 0 {
		return
	}
	first := addr &^ (hwLineSize - 1)
	last := (addr + uintptr(size) - 1) &^ (hwLineSize - 1)
	prefetchLines(first, int((last-first)/hwLineSize)+1)
}
