package core

import (
	"unsafe"

	"pbtree/internal/memsys"
)

// visit models arriving at a node: if prefetching is enabled, all
// lines of the node are prefetched (section 2.1), then the keynum
// field is read. The per-node visit overhead is charged here. The
// block is prefetched before its first word is loaded, so the header
// read already overlaps the other lines. A simulated tree first asks
// the host for the block and its address entry (hintSim), so both
// arrive while the simulator runs the charges.
func (t *Tree) visit(id nodeID) (node, uint64) {
	n := t.locate(id)
	var addr uint64 // a native tree has none (addr)
	if t.sim != nil {
		t.hintSim(n)
		addr = t.addrs[id]
	}
	if t.cfg.Prefetch {
		t.pfNode(n)
	}
	t.access(addr) // keynum
	t.compute(t.cost.Visit)
	return resolve(n), addr
}

// searchKeys finds key within n, whose simulated address is addr. It
// returns the number of entries <= key (the upper bound), and whether
// an exact match exists: on a hit, ub-1 is the position of the match.
// A simulated tree runs the paper's probe-per-key binary search,
// charging each probe; a native tree runs an unrolled data-parallel
// pass over the key array (BS-tree style), which has no mispredictions
// to pay, calls nothing, and reads the array strictly left to right —
// the lines pfNode has just asked for.
func (t *Tree) searchKeys(n node, addr uint64, key Key) (ub int, found bool) {
	keys := t.keys(n)[:n.count()]
	if t.sim == nil {
		lb := lowerBoundBranchless(keys, key)
		if lb < len(keys) && Key(keys[lb]) == key {
			return lb + 1, true
		}
		return lb, false
	}
	keyAddr := t.lay(n).keyAddr(addr, 0)
	lo, hi := 0, len(keys) // invariant: keys[:lo] <= key < keys[hi:]
	for lo < hi {
		mid := (lo + hi) / 2
		t.access(keyAddr + uint64(mid*fieldSize))
		t.compute(t.cost.Compare)
		switch k := Key(keys[mid]); {
		case k == key:
			return mid + 1, true
		case k < key:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// lowerBoundBranchless returns the first position in keys, a node's
// occupied key words, whose key is >= key (len(keys) if none) without
// a single data-dependent branch: the count of keys < key is
// accumulated with unrolled 8-wide compare-and-add blocks, each
// comparison a subtract-and-shift. Only a native tree runs it, so it
// charges nothing.
func lowerBoundBranchless(keys []uint32, key Key) int {
	k := uint64(key)
	lb, i := 0, 0
	for ; i+8 <= len(keys); i += 8 {
		s := keys[i : i+8 : i+8]
		lb += int((uint64(s[0])-k)>>63) +
			int((uint64(s[1])-k)>>63) +
			int((uint64(s[2])-k)>>63) +
			int((uint64(s[3])-k)>>63) +
			int((uint64(s[4])-k)>>63) +
			int((uint64(s[5])-k)>>63) +
			int((uint64(s[6])-k)>>63) +
			int((uint64(s[7])-k)>>63)
	}
	for ; i < len(keys); i++ {
		lb += int((uint64(keys[i]) - k) >> 63)
	}
	return lb
}

// walk descends from the root to the leaf that owns key, calling rec
// (if non-nil) with each non-leaf node left and the child index taken.
// It is the shared descent of every operation; read-only operations
// pass a rec that records into caller-owned state (or nil), keeping
// them free of writes to shared tree scratch so a frozen tree supports
// concurrent readers on a native memory model. It returns the leaf and
// its simulated address.
func (t *Tree) walk(key Key, rec func(n node, idx int)) (node, uint64) {
	id := t.root
	for level := 0; level < t.height-1; level++ {
		t.traceNode(level, t.kindAt(level))
		n, addr := t.visit(id)
		idx, _ := t.searchKeys(n, addr, key)
		t.access(t.lay(n).ptrAddr(addr, idx))
		if rec != nil {
			rec(n, idx)
		}
		id = nodeID(t.ptrs(n)[idx])
	}
	t.traceNode(t.height-1, KindLeaf)
	return t.visit(id)
}

// descend walks from the root to the leaf that owns key, recording the
// path (node and chosen child index per non-leaf level) in t.path.
// It returns the leaf. Mutating operations only: the shared path
// scratch makes it unsafe for concurrent readers.
func (t *Tree) descend(key Key) (node, uint64) {
	t.path = t.path[:0]
	cow := t.olderLive()
	return t.walk(key, func(n node, idx int) {
		t.path = append(t.path, pathEntry{id: n.id, idx: idx})
		if cow {
			// While an older version is live the writer asks who made
			// the child before it writes it (version.go); the answer
			// arrives with the child.
			memsys.HardwarePrefetch(uintptr(unsafe.Pointer(&t.ar.born[t.ptrs(n)[idx]])))
		}
	})
}

// Search looks up key and returns its tupleID.
func (t *Tree) Search(key Key) (TID, bool) {
	if t.trc != nil {
		t.trc.BeginOp(OpSearch)
		defer t.trc.EndOp(OpSearch)
	}
	t.compute(t.cost.Op)
	n, addr := t.walk(key, nil)
	ub, found := t.searchKeys(n, addr, key)
	if !found {
		return 0, false
	}
	i := ub - 1
	t.access(t.leafLay.ptrAddr(addr, i))
	return TID(t.ptrs(n)[i]), true
}

// findLeaf returns the leaf that owns key together with the position
// of key within it (insertion position if absent). It is the shared
// first phase of Insert and Delete; it records the descent in t.path
// for the structural updates that may follow.
func (t *Tree) findLeaf(key Key) (n node, ub int, found bool) {
	n, addr := t.descend(key)
	ub, found = t.searchKeys(n, addr, key)
	return n, ub, found
}
