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
//     backing arrays. A simulated tree never does.
//
// A node's real memory is not one contiguous block: the Go struct
// holds separate keys and tids/children slices. The paper's
// keys-before-pointers layout insight carries over directly — a
// search touches only the key array until the final child/tupleID
// read — so a node visit prefetches the key array and the pointer
// array, each as one range.

// Real element sizes of the backing arrays (keys and tupleIDs happen
// to match the simulated fieldSize; Go pointers do not).
const (
	realKeyBytes  = int(unsafe.Sizeof(Key(0)))
	realTIDBytes  = int(unsafe.Sizeof(TID(0)))
	realPtrBytes  = int(unsafe.Sizeof((*node)(nil)))
	realPairBytes = int(unsafe.Sizeof(Pair{}))
)

// hwPrefetch issues one real prefetch instruction per hardware line of
// the bytes at p (none when bytes is 0, e.g. for an empty slice).
func hwPrefetch(p unsafe.Pointer, bytes int) {
	memsys.HardwarePrefetchRange(uintptr(p), bytes)
}

// pfNode prefetches all lines of a node: the full key array plus the
// tupleID (leaf) or child pointer (non-leaf) array on a native tree,
// the simulated node region on the model.
func (t *Tree) pfNode(n *node) {
	if t.native {
		hwPrefetch(unsafe.Pointer(unsafe.SliceData(n.keys)), len(n.keys)*realKeyBytes)
		if n.leaf {
			hwPrefetch(unsafe.Pointer(unsafe.SliceData(n.tids)), len(n.tids)*realTIDBytes)
		} else {
			hwPrefetch(unsafe.Pointer(unsafe.SliceData(n.children)), len(n.children)*realPtrBytes)
		}
	}
	t.mem.PrefetchRange(n.addr, t.lay(n).size)
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
func (t *Tree) pfLeafHint(leaf *node) {
	if t.native {
		memsys.HardwarePrefetch(uintptr(unsafe.Pointer(&leaf.hint)))
	}
	t.mem.Prefetch(t.leafLay.hintAddr(leaf.addr))
}

// pfChunk prefetches all lines of an external jump-pointer array
// chunk.
func (t *Tree) pfChunk(ck *chunk) {
	if t.native {
		hwPrefetch(unsafe.Pointer(unsafe.SliceData(ck.slots)), len(ck.slots)*realPtrBytes)
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
