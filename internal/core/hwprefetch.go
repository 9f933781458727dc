package core

import (
	"unsafe"

	"pbtree/internal/memsys"
)

// Prefetch dispatch. Every prefetch the tree issues goes through one
// of the pf* helpers below, and each does the same two things:
//
//   - it charges the memory model with the *simulated* address of what
//     is being prefetched — the Model interface never sees a real
//     address, so a Hierarchy models the paper's prefetch exactly and a
//     counted Native model counts the same events as its simulated twin;
//   - on a native tree (t.native, set once by New from the type of
//     Config.Mem) it first issues real prefetch instructions
//     (PREFETCHT0 / PRFM, memsys.HardwarePrefetch) for the *real*
//     blocks and buffers. A simulated tree never does.
//
// A node's real memory is its block: one contiguous, pointer-free run
// of Width lines, so a node visit is one prefetch range in both
// memories.

// Real element sizes of a scan's return buffer (they happen to match
// the simulated ones: a tupleID is one field, a Pair two).
const (
	realTIDBytes  = int(unsafe.Sizeof(TID(0)))
	realPairBytes = int(unsafe.Sizeof(Pair{}))
)

// pfNode prefetches all lines of a node: its block on a native tree,
// the simulated node region on the model. A located node is enough: it
// reads none of the block.
func (t *Tree) pfNode(n node) {
	if t.native {
		memsys.HardwarePrefetchRange(uintptr(unsafe.Pointer(unsafe.SliceData(n.w))), len(n.w)*fieldSize)
	}
	t.mem.PrefetchRange(t.addr(n), t.leafLay.size)
}

// pfHint prefetches the jump-pointer chunk lines a leaf's hint points
// at: the chunk header and the hinted slot (the Go chunk has no
// separate header line, so the real prefetch is the slot entry).
func (t *Tree) pfHint(h hintPos) {
	if t.native && h.slot >= 0 && h.slot < len(h.chunk.slots) {
		memsys.HardwarePrefetch(uintptr(unsafe.Pointer(&h.chunk.slots[h.slot])))
	}
	t.mem.Prefetch(h.chunk.addr)
	t.mem.Prefetch(h.chunk.slotAddr(h.slot))
}

// pfLeafHint prefetches the line holding a leaf's hint field.
func (t *Tree) pfLeafHint(leaf node) {
	if t.native {
		memsys.HardwarePrefetch(uintptr(unsafe.Pointer(&leaf.w[t.leafLay.hintOff/fieldSize])))
	}
	t.mem.Prefetch(t.leafLay.hintAddr(t.addr(leaf)))
}

// pfChunk prefetches all lines of an external jump-pointer array
// chunk.
func (t *Tree) pfChunk(ck *chunk) {
	if t.native {
		memsys.HardwarePrefetchRange(uintptr(unsafe.Pointer(unsafe.SliceData(ck.slots))), len(ck.slots)*fieldSize)
	}
	t.mem.PrefetchRange(ck.addr, t.chunkBytes())
}

// pfBuf prefetches sz bytes at offset off of the scanner's return
// buffer. Simulated offsets map one-to-one onto the caller's real
// buffer — both are packed 4-byte TIDs or 8-byte Pairs — so a native
// tree prefetches the same window of the real one, clamped to its
// length.
func (s *Scanner) pfBuf(off, sz int) {
	if s.t.native {
		memsys.HardwarePrefetchRange(s.bufReal+uintptr(off), min(sz, s.bufRealBytes-off))
	}
	s.t.mem.PrefetchRange(s.bufAddr+uint64(off), sz)
}
