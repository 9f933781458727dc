package memsys

// Model is the memory-system interface index structures charge their
// work to. Two implementations exist:
//
//   - Hierarchy, the cycle-accurate simulator behind every number in
//     EXPERIMENTS.md. It is single-threaded by design: each simulation
//     owns one Hierarchy.
//   - Native, a no-op model that lets the same index code run at real
//     wall-clock speed. It is immutable, which is what makes
//     concurrent reads on a frozen index possible.
//
// Indexes take a Model in their configuration, so switching an index
// between paper reproduction and native serving is a one-argument
// change (core.Tree resolves it once, at construction: a simulated
// tree keeps the concrete *Hierarchy, a native tree keeps no model at
// all). Every address passed through this interface is a simulated one
// (from an AddressSpace); real addresses only ever go to
// HardwarePrefetch/HardwarePrefetchRange.
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

// Native is the model of an index that runs at real hardware speed. It
// charges nothing — its five charge methods are empty, and an index
// that finds one (core.Tree) does not even call them: it holds no
// model at all on its hot path. What is left is the two things an
// index still asks of it:
//
//   - it carries the configuration: indexes derive their node layouts
//     from the line size, so a tree built on a Native model with the
//     default configuration has the same shape as its simulated twin;
//   - it selects the code path: a tree whose model is a *Native
//     searches branchlessly and issues real prefetch instructions
//     (HardwarePrefetch), a tree on a *Hierarchy runs the paper's
//     algorithm against simulated addresses.
//
// A Native model is immutable after its constructor returns, so one
// may be shared by any number of trees and goroutines.
type Native struct {
	cfg Config
}

// NewNative creates a native model with the given configuration. Like
// New, it panics on an invalid configuration.
func NewNative(cfg Config) *Native {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Native{cfg: cfg}
}

// DefaultNative creates a native model with DefaultConfig.
func DefaultNative() *Native { return NewNative(DefaultConfig()) }

// Config returns the configuration the model was built with.
func (n *Native) Config() Config { return n.cfg }

// Now reports 0: the native model has no simulated clock. Measure
// native-mode performance with wall-clock time (testing.B).
func (n *Native) Now() uint64 { return 0 }

// The five charges are no-ops. Like every Model method they are handed
// simulated addresses and never touch them: an index on a native model
// issues its real prefetch instructions itself, through
// HardwarePrefetch/HardwarePrefetchRange.

// Compute does nothing.
func (n *Native) Compute(c uint64) {}

// Access does nothing.
func (n *Native) Access(addr uint64) {}

// Prefetch does nothing.
func (n *Native) Prefetch(addr uint64) {}

// AccessRange does nothing.
func (n *Native) AccessRange(addr uint64, size int) {}

// PrefetchRange does nothing.
func (n *Native) PrefetchRange(addr uint64, size int) {}

// FlushCaches is a no-op: the native model holds no cache state.
func (n *Native) FlushCaches() {}

// Stats reports the zero Stats: nothing is counted.
func (n *Native) Stats() Stats { return Stats{} }

// ResetStats is a no-op.
func (n *Native) ResetStats() {}
