package memsys

import "sync/atomic"

// Model is the memory-system interface index structures charge their
// work to. Two implementations exist:
//
//   - Hierarchy, the cycle-accurate simulator behind every number in
//     EXPERIMENTS.md. It is single-threaded by design: each simulation
//     owns one Hierarchy.
//   - Native, a near-no-op model that lets the same index code run at
//     real wall-clock speed. All of its methods are safe for concurrent
//     use, which is what makes concurrent reads on a frozen index
//     possible.
//
// Index code holds a Model, never a concrete *Hierarchy, so switching
// an index between paper reproduction and native serving is a
// one-argument change. Every address passed through this interface is
// a simulated one (from an AddressSpace); real addresses only ever go
// to HardwarePrefetch/HardwarePrefetchRange.
type Model interface {
	// Compute charges c busy cycles of instruction work.
	Compute(c uint64)
	// Access performs a demand load or store of the line containing
	// addr.
	Access(addr uint64)
	// Prefetch issues a non-binding software prefetch for the line
	// containing addr.
	Prefetch(addr uint64)
	// AccessRange issues demand accesses for every line overlapped by
	// [addr, addr+size).
	AccessRange(addr uint64, size int)
	// PrefetchRange issues prefetches for every line overlapped by
	// [addr, addr+size).
	PrefetchRange(addr uint64, size int)

	// Config returns the memory-system configuration (indexes read the
	// line size to derive node layouts).
	Config() Config
	// Now reports the current simulated cycle. The native model has no
	// clock and always reports 0.
	Now() uint64
	// Stats returns a snapshot of the accumulated counters.
	Stats() Stats
	// ResetStats zeroes the counters.
	ResetStats()
	// FlushCaches empties any modeled cache state (a no-op for the
	// native model).
	FlushCaches()
}

// Compile-time interface checks.
var (
	_ Model = (*Hierarchy)(nil)
	_ Model = (*Native)(nil)
)

// IsNil reports whether m is nil or a typed nil implementation, so
// constructors that default a nil Model also catch the nil *Hierarchy
// a caller might pass through the interface.
func IsNil(m Model) bool {
	switch v := m.(type) {
	case nil:
		return true
	case *Hierarchy:
		return v == nil
	case *Native:
		return v == nil
	}
	return false
}

// NativeStats are the optional event counters of a counted Native
// model.
type NativeStats struct {
	Accesses      uint64 // demand line accesses
	Prefetches    uint64 // prefetch instructions
	ComputeCycles uint64 // charged instruction work
}

// Native is the zero-cost memory model: every charge is a no-op (or,
// when counting is enabled, an atomic counter increment), so index
// operations run at real hardware speed. Unlike Hierarchy, a Native
// model is safe for concurrent use from any number of goroutines.
//
// The configuration still matters: indexes derive their node layouts
// from the line size, so a tree built on a Native model with the
// default configuration has the same shape as its simulated twin.
//
// A Native model has no mode: every field but the counters is set by
// its constructor and never written again, so one model may be
// shared by any number of trees and goroutines. It is also what an
// index looks at to pick its code path — a tree whose model is a
// *Native searches branchlessly and issues real prefetch instructions
// (HardwarePrefetch), a tree on a *Hierarchy runs the paper's
// algorithm against simulated addresses.
type Native struct {
	cfg      Config
	lineMask uint64
	counted  bool

	accesses   atomic.Uint64
	prefetches atomic.Uint64
	compute    atomic.Uint64
}

// NewNative creates a zero-cost native model with the given
// configuration. Like New, it panics on an invalid configuration.
func NewNative(cfg Config) *Native { return newNative(cfg, false) }

// DefaultNative creates a zero-cost native model with DefaultConfig.
func DefaultNative() *Native { return NewNative(DefaultConfig()) }

// NewNativeCounted creates a native model that additionally maintains
// atomic event counters (see NativeStats). Counting costs one atomic
// add per charge; leave it off on hot serving paths.
func NewNativeCounted(cfg Config) *Native { return newNative(cfg, true) }

func newNative(cfg Config, counted bool) *Native {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Native{cfg: cfg, lineMask: ^uint64(cfg.LineSize - 1), counted: counted}
}

// Counted reports whether the model maintains event counters.
func (n *Native) Counted() bool { return n.counted }

// Config returns the configuration the model was built with.
func (n *Native) Config() Config { return n.cfg }

// Now reports 0: the native model has no simulated clock. Measure
// native-mode performance with wall-clock time (testing.B).
func (n *Native) Now() uint64 { return 0 }

// Compute charges c busy cycles (counted models only).
func (n *Native) Compute(c uint64) {
	if n.counted {
		n.compute.Add(c)
	}
}

// Access records a demand access (counted models only).
func (n *Native) Access(addr uint64) {
	if n.counted {
		n.accesses.Add(1)
	}
}

// Prefetch records a prefetch (counted models only). Like every
// Model method it is handed a simulated address and never touches it:
// an index on a native model issues its real prefetch instructions
// itself, through HardwarePrefetch/HardwarePrefetchRange.
func (n *Native) Prefetch(addr uint64) {
	if n.counted {
		n.prefetches.Add(1)
	}
}

// AccessRange records one access per overlapped line (counted models
// only).
func (n *Native) AccessRange(addr uint64, size int) {
	if n.counted && size > 0 {
		n.accesses.Add(rangeLines(addr, size, n.lineMask, n.cfg.LineSize))
	}
}

// PrefetchRange records one prefetch per overlapped line (counted
// models only).
func (n *Native) PrefetchRange(addr uint64, size int) {
	if n.counted && size > 0 {
		n.prefetches.Add(rangeLines(addr, size, n.lineMask, n.cfg.LineSize))
	}
}

// FlushCaches is a no-op: the native model holds no cache state.
func (n *Native) FlushCaches() {}

// Stats maps the native counters onto the shared Stats shape: charged
// work appears as Busy and prefetch counts as Prefetch; the simulator's
// hit/miss breakdown has no native equivalent and stays zero.
func (n *Native) Stats() Stats {
	return Stats{Busy: n.compute.Load(), Prefetch: n.prefetches.Load()}
}

// NativeStats returns the full native counter set.
func (n *Native) NativeStats() NativeStats {
	return NativeStats{
		Accesses:      n.accesses.Load(),
		Prefetches:    n.prefetches.Load(),
		ComputeCycles: n.compute.Load(),
	}
}

// ResetStats zeroes the counters.
func (n *Native) ResetStats() {
	n.accesses.Store(0)
	n.prefetches.Store(0)
	n.compute.Store(0)
}

// rangeLines counts the cache lines overlapped by [addr, addr+size),
// clamping a range whose end would wrap past the top of the address
// space to the last representable line. size must be positive.
func rangeLines(addr uint64, size int, lineMask uint64, lineSize int) uint64 {
	first := addr & lineMask
	end := addr + uint64(size) - 1
	if end < addr {
		end = ^uint64(0) // range wraps: clamp to the last line
	}
	last := end & lineMask
	return (last-first)/uint64(lineSize) + 1
}
