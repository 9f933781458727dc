package core

// The one place a tree charges its memory model. A simulated tree
// holds its *memsys.Hierarchy as t.sim and every charge is a static
// call on it; a native tree holds none (t.sim is nil — that is what
// "native" means here, see Tree) and every charge is a not-taken
// branch the compiler inlines at the call site. No other non-test file
// of this package may call a model verb directly, and all five helpers
// must stay inlinable: `make charge-gate` checks both.

// compute charges c busy cycles of instruction work.
func (t *Tree) compute(c uint64) {
	if t.sim != nil {
		t.sim.Compute(c)
	}
}

// access charges a demand load or store of the line holding addr.
func (t *Tree) access(addr uint64) {
	if t.sim != nil {
		t.sim.Access(addr)
	}
}

// accessRange charges demand accesses of every line overlapped by
// [addr, addr+size).
func (t *Tree) accessRange(addr uint64, size int) {
	if t.sim != nil {
		t.sim.AccessRange(addr, size)
	}
}

// prefetch charges a software prefetch of the line holding addr.
func (t *Tree) prefetch(addr uint64) {
	if t.sim != nil {
		t.sim.Prefetch(addr)
	}
}

// prefetchRange charges prefetches of every line overlapped by
// [addr, addr+size).
func (t *Tree) prefetchRange(addr uint64, size int) {
	if t.sim != nil {
		t.sim.PrefetchRange(addr, size)
	}
}
