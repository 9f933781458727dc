package core

import (
	"unsafe"

	"pbtree/internal/memsys"
)

// Prefetch dispatch. Every prefetch of a node or a return buffer goes
// through one of the pf* helpers below (a jump-pointer array's are
// charges: only a simulated tree has one), and each does one of two
// things:
//
//   - a simulated tree charges its hierarchy with the *simulated*
//     address of what is being prefetched (charge.go) — the paper's
//     prefetch, modeled exactly;
//   - a native tree (t.sim == nil) instead issues real prefetch
//     instructions (PREFETCHT0 / PRFM, memsys.HardwarePrefetch) for
//     the *real* blocks and buffers, and charges nothing.
//
// A node's real memory is its block: one contiguous, pointer-free run
// of Width lines, so a node visit is one prefetch range in both
// memories.

// pfNode prefetches all lines of a node: its block on a native tree,
// the simulated node region on the model. A located node is enough: it
// reads none of the block.
func (t *Tree) pfNode(n node) {
	if t.sim == nil {
		pfBlock(n.w)
		return
	}
	t.prefetchRange(t.addr(n), t.leafLay.size)
}

// pfBlock issues the real prefetch of every line of block w.
func pfBlock(w []uint32) {
	memsys.HardwarePrefetchRange(uintptr(unsafe.Pointer(unsafe.SliceData(w))), len(w)*fieldSize)
}

// hintSim asks the host for what a simulated tree reads next of a
// node: its block and its simulated address in t.addrs. These are
// real prefetch instructions issued for the simulator's own speed,
// not the paper's prefetch: nothing is charged, no model verb is
// called, and the charge sequence is the same with or without them.
func (t *Tree) hintSim(n node) {
	pfBlock(n.w)
	memsys.HardwarePrefetch(uintptr(unsafe.Pointer(&t.addrs[n.id])))
}

// pfBuf prefetches sz bytes at offset off of the scanner's return
// buffer: the simulated region on a simulated tree; on a native one
// the same window of the caller's real buffer — both are packed 4-byte
// TIDs or 8-byte Pairs, so offsets map one-to-one — clamped to its
// length.
func (s *Scanner) pfBuf(off, sz int) {
	if s.t.sim == nil {
		memsys.HardwarePrefetchRange(s.bufReal+uintptr(off), min(sz, s.bufRealBytes-off))
		return
	}
	s.t.prefetchRange(s.bufAddr+uint64(off), sz)
}
