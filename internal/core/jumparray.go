package core

// This file implements the external jump-pointer array of section 3.2:
// a chunked linked list of leaf-node addresses used to prefetch
// arbitrarily far ahead during range scans. Each leaf carries a hint
// back-pointer: the chunk is always correct, the slot index may be
// stale and is repaired for free whenever the precise position is
// looked up.

// chunkHeaderFields is the number of 4-byte fields (next, prev) at the
// front of a chunk.
const chunkHeaderFields = 2

// chunk is one piece of the external jump-pointer array. slots[i] is
// 0 for an empty slot; occupied slots appear in leaf key order.
type chunk struct {
	addr       uint64
	idx        uint32 // position in Tree.chunks, what a leaf's hint stores
	next, prev *chunk
	slots      []nodeID
	n          int // occupied slots
}

// slotAddr returns the simulated address of slots[i].
func (c *chunk) slotAddr(i int) uint64 {
	return c.addr + uint64((chunkHeaderFields+i)*fieldSize)
}

// chunkBytes is the allocation size of a chunk.
func (t *Tree) chunkBytes() int {
	return (t.jpCap + chunkHeaderFields) * fieldSize
}

// pfChunk prefetches all lines of a chunk. Only a simulated tree has
// a jump-pointer array, so this is a charge, like every prefetch of
// one.
func (t *Tree) pfChunk(ck *chunk) {
	t.prefetchRange(ck.addr, t.chunkBytes())
}

// newChunk allocates an empty chunk.
func (t *Tree) newChunk() *chunk {
	ck := &chunk{
		addr:  t.space.Alloc(t.chunkBytes()),
		idx:   uint32(len(t.chunks)),
		slots: make([]nodeID, t.jpCap),
	}
	t.chunks = append(t.chunks, ck)
	return ck
}

// jpBulkload builds the jump-pointer array over the n leaves first,
// first+1, ... (a bulkload's leaves have consecutive ids), filling
// each chunk to the bulkload factor with the empty slots evenly
// interleaved.
func (t *Tree) jpBulkload(first nodeID, n int, fill float64) {
	occ := fillCount(t.jpCap, fill)
	var tail *chunk
	for start := 0; start < n; start += occ {
		end := min(start+occ, n)
		ck := t.newChunk()
		t.accessRange(ck.addr, t.chunkBytes())
		for j := start; j < end; j++ {
			// Spread the occupied slots across the chunk so every
			// insertion finds a nearby empty slot.
			slot := t.jpSlotFor(j-start, occ)
			leaf := t.view(first + nodeID(j))
			ck.slots[slot] = leaf.id
			t.setHint(leaf, ck, slot)
			t.access(t.leafLay.hintAddr(t.addr(leaf)))
		}
		ck.n = end - start
		if tail == nil {
			t.jpHead = ck
		} else {
			tail.next = ck
			ck.prev = tail
			t.access(tail.addr)
			t.access(ck.addr)
		}
		tail = ck
	}
	if t.jpHead == nil { // no leaves at all: keep one empty chunk
		t.jpHead = t.newChunk()
	}
}

// jpLocate follows leaf's hint to its precise slot, searching outward
// within the chunk when the hint is stale, and repairs the hint (for
// free: the leaf is cached after the search that preceded this call).
func (t *Tree) jpLocate(leaf node) (*chunk, int) {
	h := t.hint(leaf)
	ck := h.chunk
	t.access(t.leafLay.hintAddr(t.addr(leaf)))
	t.traceNode(LevelNone, KindChunk)
	t.access(ck.addr)
	t.access(ck.slotAddr(h.slot))
	if ck.slots[h.slot] == leaf.id {
		return ck, h.slot
	}
	t.stats.HintRepairs++
	for d := 1; d < len(ck.slots); d++ {
		if i := h.slot + d; i < len(ck.slots) {
			t.access(ck.slotAddr(i))
			if ck.slots[i] == leaf.id {
				t.setHint(leaf, ck, i)
				return ck, i
			}
		}
		if i := h.slot - d; i >= 0 {
			t.access(ck.slotAddr(i))
			if ck.slots[i] == leaf.id {
				t.setHint(leaf, ck, i)
				return ck, i
			}
		}
	}
	panic("core: leaf missing from its hinted jump-pointer chunk")
}

// jpInsertAfter inserts newLeaf's jump pointer immediately after
// left's, shifting pointers toward the nearest empty slot, or
// splitting the chunk when it is full (section 3.4, Insertion).
func (t *Tree) jpInsertAfter(left, newLeaf node) {
	ck, p := t.jpLocate(left)
	t.stats.JumpPointerInserts++

	// Find the nearest empty slot, searching outward from p.
	empty := -1
	for d := 1; d < len(ck.slots); d++ {
		if i := p + d; i < len(ck.slots) {
			t.access(ck.slotAddr(i))
			if ck.slots[i] == 0 {
				empty = i
				break
			}
		}
		if i := p - d; i >= 0 {
			t.access(ck.slotAddr(i))
			if ck.slots[i] == 0 {
				empty = i
				break
			}
		}
	}

	switch {
	case empty > p:
		// Shift (p, empty) one slot right; newLeaf lands at p+1.
		moved := empty - p - 1
		copy(ck.slots[p+2:empty+1], ck.slots[p+1:empty])
		ck.slots[p+1] = newLeaf.id
		t.setHint(newLeaf, ck, p+1)
		ck.n++
		t.accessRange(ck.slotAddr(p+1), (moved+1)*fieldSize)
		t.access(t.leafLay.hintAddr(t.addr(newLeaf)))
		t.compute(t.cost.Move * uint64(moved+1))
		if t.cfg.Ablation.ExactHints {
			t.jpRehint(ck, p+2, empty+1)
		}
	case empty >= 0:
		// Shift (empty, p] one slot left; newLeaf lands at p. The
		// hints of the moved leaves are NOT updated — they are hints.
		moved := p - empty
		copy(ck.slots[empty:p], ck.slots[empty+1:p+1])
		ck.slots[p] = newLeaf.id
		t.setHint(newLeaf, ck, p)
		t.setHint(left, ck, p-1) // left is cached: free update
		ck.n++
		t.accessRange(ck.slotAddr(empty), (moved+1)*fieldSize)
		t.access(t.leafLay.hintAddr(t.addr(newLeaf)))
		t.compute(t.cost.Move * uint64(moved+1))
		if t.cfg.Ablation.ExactHints {
			t.jpRehint(ck, empty, p)
		}
	default:
		t.jpSplitChunk(ck, p, newLeaf.id)
	}
}

// jpSplitChunk splits a full chunk around the insertion of newLeaf
// after slot p, redistributing the pointers evenly (with evenly
// interleaved empty slots) across the two chunks and updating the
// hints of every moved leaf.
func (t *Tree) jpSplitChunk(ck *chunk, p int, newLeaf nodeID) {
	t.stats.ChunkSplits++
	nc := t.newChunk()
	t.pfChunk(nc)

	// Combined pointer order: slots[0..p], newLeaf, slots[p+1..].
	combined := make([]nodeID, 0, ck.n+1)
	combined = append(combined, ck.slots[:p+1]...)
	combined = append(combined, newLeaf)
	combined = append(combined, ck.slots[p+1:]...)

	half := (len(combined) + 1) / 2
	clear(ck.slots)
	t.jpFill(ck, combined[:half])
	t.jpFill(nc, combined[half:])

	nc.next = ck.next
	nc.prev = ck
	if ck.next != nil {
		ck.next.prev = nc
		t.access(ck.next.addr)
	}
	ck.next = nc
	t.access(ck.addr)
	t.access(nc.addr)
}

// jpFill lays pointers into a chunk with empty slots evenly
// interleaved and updates (and charges) each leaf's hint. The hint
// lines are prefetched first so the writes overlap instead of paying
// one full miss per leaf.
func (t *Tree) jpFill(ck *chunk, leaves []nodeID) {
	ck.n = len(leaves)
	for _, id := range leaves {
		t.prefetch(t.leafLay.hintAddr(t.addr(t.locate(id))))
	}
	for j, id := range leaves {
		slot := t.jpSlotFor(j, len(leaves))
		leaf := t.locate(id)
		ck.slots[slot] = id
		t.setHint(leaf, ck, slot)
		t.access(t.leafLay.hintAddr(t.addr(leaf)))
	}
	t.accessRange(ck.addr, t.chunkBytes())
	t.compute(t.cost.Move * uint64(len(leaves)))
}

// jpSlotFor places occupied entry j of occ within a chunk: evenly
// interleaved with empties by default, packed left under the
// PackChunks ablation.
func (t *Tree) jpSlotFor(j, occ int) int {
	if t.cfg.Ablation.PackChunks {
		return j
	}
	return j * t.jpCap / occ
}

// jpRehint eagerly repairs the hints of the jump pointers in chunk
// slots [lo, hi), charging one leaf write each — the cost the
// hints-are-hints design avoids (ExactHints ablation only).
func (t *Tree) jpRehint(ck *chunk, lo, hi int) {
	for i := lo; i < hi; i++ {
		if id := ck.slots[i]; id != 0 {
			leaf := t.locate(id)
			t.setHint(leaf, ck, i)
			t.access(t.leafLay.hintAddr(t.addr(leaf)))
		}
	}
}

// jpRemove deletes leaf's jump pointer: the slot is nulled, or the
// chunk removed from the list when this was its last pointer
// (section 3.4, Deletion).
func (t *Tree) jpRemove(leaf node) {
	ck, p := t.jpLocate(leaf)
	t.stats.JumpPointerRemovals++
	if ck.n >= 2 {
		ck.slots[p] = 0
		ck.n--
		t.access(ck.slotAddr(p))
		return
	}
	t.stats.ChunkRemoves++
	t.chunks[ck.idx] = nil
	if ck.prev != nil {
		ck.prev.next = ck.next
		t.access(ck.prev.addr)
	} else {
		t.jpHead = ck.next
	}
	if ck.next != nil {
		ck.next.prev = ck.prev
		t.access(ck.next.addr)
	}
}
