package memsys

import (
	"testing"
	"unsafe"
)

// TestHardwarePrefetchExecutes drives the asm stubs over real memory,
// unmapped-looking addresses and zero: a prefetch is a non-binding
// hint, so every call must simply return. This is the whole behavioral
// contract of the stubs — effects on timing are measured by the benchmark's
// embedded/* and tree_* metrics, not asserted here.
func TestHardwarePrefetchExecutes(t *testing.T) {
	buf := make([]byte, 4096)
	HardwarePrefetch(uintptr(unsafe.Pointer(&buf[0])))
	HardwarePrefetchRange(uintptr(unsafe.Pointer(&buf[0])), len(buf))
	HardwarePrefetchRange(uintptr(unsafe.Pointer(&buf[17])), 100) // unaligned
	HardwarePrefetch(0)
	HardwarePrefetch(^uintptr(0) - 4096)
	HardwarePrefetchRange(uintptr(unsafe.Pointer(&buf[0])), 0)  // empty
	HardwarePrefetchRange(uintptr(unsafe.Pointer(&buf[0])), -1) // negative
}
