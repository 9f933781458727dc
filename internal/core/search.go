package core

import (
	"unsafe"

	"pbtree/internal/memsys"
)

// visit models arriving at a node of a simulated tree: if prefetching
// is enabled, all lines of the node are prefetched (section 2.1), then
// the keynum field is read. The per-node visit overhead is charged
// here. The block is prefetched before its first word is loaded, so
// the header read already overlaps the other lines. The host is first
// asked for the block and its address entry (hintSim), so both arrive
// while the simulator runs the charges.
func (t *Tree) visit(id nodeID) (node, uint64) {
	n := t.locate(id)
	t.hintSim(n)
	addr := t.addrs[id]
	if t.cfg.Prefetch {
		t.pfNode(n)
	}
	t.access(addr) // keynum
	t.compute(t.cost.Visit)
	return resolve(n), addr
}

// searchKeys finds key within n, a node of a simulated tree whose
// simulated address is addr, by the paper's probe-per-key binary
// search, charging each probe. It returns the number of entries <= key
// (the upper bound), and whether an exact match exists: on a hit, ub-1
// is the position of the match.
func (t *Tree) searchKeys(n node, addr uint64, key Key) (ub int, found bool) {
	keys := t.keys(n)[:n.count()]
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

// countLess returns how many keys of block w are less than k (a uint64,
// so that an upper bound, key+1, fits), in two branch-free steps over
// runs of 8 keys: runsBelow compares the last key of every run, then
// countRun the keys of the run k falls in — 7 + 8 compares in a
// fill-0.8 w=8 node, not ~50. Each compare is masked by its position:
// the words past the count are whatever an earlier occupant left.
func countLess(w []uint32, k uint64) int {
	c := uint64(w[0] & countMask)
	b := 8 * runsBelow(w, c, k)
	return b + countRun(w[b+1:b+5:b+5], uint64(b)-c, k) + countRun(w[b+5:b+9:b+9], uint64(b+4)-c, k)
}

// runsBelow counts the full runs of block w, whose count is c, that end
// below k; run i ends at word 8(i+1).
func runsBelow(w []uint32, c, k uint64) int {
	r := 0
	for j := 8; j < len(w)/2; j += 8 {
		r += int((uint64(w[j]) - k) & (uint64(j-1) - c) >> 63)
	}
	return r
}

// countRun counts the keys s[i] < k with p+i < 0, p being s[0]'s
// position less the count: half a run, since a whole one would be past
// what the compiler inlines.
func countRun(s []uint32, p, k uint64) int {
	s = s[:4]
	return int((uint64(s[0])-k)&p>>63 + (uint64(s[1])-k)&(p+1)>>63 +
		(uint64(s[2])-k)&(p+2)>>63 + (uint64(s[3])-k)&(p+3)>>63)
}

// leafFind returns the number of keys of leaf block w below key, and
// whether the next one is key.
func leafFind(w []uint32, key Key) (lb int, found bool) {
	lb = countLess(w, uint64(key))
	return lb, lb < int(w[0]&countMask) && w[1+lb] == uint32(key)
}

// descendNative is the native descent kernel (DESIGN.md §14): it
// returns the leaf that owns key. A native tree's blocks all have one
// shape — count, keys from word 1, child ids or tupleIDs from the
// middle word — so a level locates the block, asks for it, counts and
// loads the child id, with no layout, charge, header kind or exact
// match to consult. With rec it appends each non-leaf step to path;
// with cow (a writer while an older version is live) it asks for each
// child's birth word too, which the writer reads first (version.go).
func (t *Tree) descendNative(key Key, path []pathEntry, rec, cow bool) (node, []pathEntry) {
	n := t.locate(t.root)
	for level := 1; ; level++ {
		if t.cfg.Prefetch {
			pfBlock(n.w)
		}
		if level == t.height {
			n.kind = KindLeaf
			return n, path
		}
		idx := countLess(n.w, uint64(key)+1)
		if rec {
			path = append(path, pathEntry{n.id, idx})
		}
		n = t.locate(nodeID(n.w[len(n.w)/2+idx]))
		if cow {
			memsys.HardwarePrefetch(uintptr(unsafe.Pointer(&t.ar.born[n.id])))
		}
	}
}

// walk descends a simulated tree from the root to the leaf that owns
// key, calling rec (if non-nil) with each non-leaf node left and the
// child index taken. It returns the leaf and its simulated address.
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

// Search looks up key and returns its tupleID.
func (t *Tree) Search(key Key) (TID, bool) {
	if t.trc != nil {
		t.trc.BeginOp(OpSearch)
		defer t.trc.EndOp(OpSearch)
	}
	if t.sim == nil {
		leaf, _ := t.descendNative(key, nil, false, false)
		if i, found := leafFind(leaf.w, key); found {
			return TID(leaf.w[len(leaf.w)/2+i]), true
		}
		return 0, false
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

// findLeaf is find into t.path, the first phase of Insert and Delete:
// the path is what their structural updates walk back up, which makes
// it a writer's alone.
func (t *Tree) findLeaf(key Key) (n node, ub int, found bool) {
	n, ub, found, t.path = t.find(key, t.path[:0], t.olderLive())
	return n, ub, found
}

// find returns the leaf that owns key and the number of its entries <=
// key (key sits at ub-1 if found, and belongs at ub if not), and
// appends the descent to path: each non-leaf node and the child index
// taken. cow is descendNative's.
func (t *Tree) find(key Key, path []pathEntry, cow bool) (n node, ub int, found bool, _ []pathEntry) {
	if t.sim == nil {
		n, path = t.descendNative(key, path, true, cow)
		if ub, found = leafFind(n.w, key); found {
			ub++
		}
		return n, ub, found, path
	}
	n, addr := t.walk(key, func(n node, idx int) {
		path = append(path, pathEntry{n.id, idx})
	})
	ub, found = t.searchKeys(n, addr, key)
	return n, ub, found, path
}
