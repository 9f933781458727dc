package core

// Insert adds a <key, tid> pair to the index. If the key is already
// present its tupleID is overwritten and Insert reports false;
// otherwise it reports true.
//
// As in section 2.1 of the paper, the search phase leaves the
// root-to-leaf path in the cache, and newly allocated nodes are
// prefetched in their entirety before keys are redistributed into
// them.
func (t *Tree) Insert(key Key, tid TID) bool {
	if t.trc != nil {
		t.trc.BeginOp(OpInsert)
		defer t.trc.EndOp(OpInsert)
	}
	t.mustWrite()
	t.compute(t.cost.Op)
	leaf, ub, found := t.findLeaf(key)
	if t.olderLive() {
		leaf = t.ownPath(leaf.id)
	}
	if found {
		i := ub - 1
		t.access(t.leafLay.ptrAddr(t.addr(leaf), i))
		t.compute(t.cost.Copy)
		t.ptrs(leaf)[i] = uint32(tid)
		return false
	}
	t.stats.Inserts++
	t.count++
	splitsBefore := t.stats.LeafSplits + t.stats.NonLeafSplits
	nlSplitsBefore := t.stats.NonLeafSplits

	if t.full(leaf) {
		t.splitLeaf(leaf.id, ub, key, tid)
	} else {
		t.leafInsertAt(leaf, ub, key, tid)
	}

	if t.stats.LeafSplits+t.stats.NonLeafSplits > splitsBefore {
		t.stats.InsertsWithSplit++
	}
	if t.stats.NonLeafSplits > nlSplitsBefore {
		t.stats.InsertsWithNLSplit++
	}
	return true
}

// leafInsertAt inserts the pair at position pos of a non-full leaf.
func (t *Tree) leafInsertAt(n node, pos int, key Key, tid TID) {
	keys, tids, cnt := t.keys(n), t.ptrs(n), n.count()
	moved := cnt - pos
	copy(keys[pos+1:cnt+1], keys[pos:cnt])
	copy(tids[pos+1:cnt+1], tids[pos:cnt])
	keys[pos] = uint32(key)
	tids[pos] = uint32(tid)
	n.setCount(cnt + 1)
	t.accessRange(t.leafLay.keyAddr(t.addr(n), pos), (moved+1)*fieldSize)
	t.accessRange(t.leafLay.ptrAddr(t.addr(n), pos), (moved+1)*fieldSize)
	t.access(t.addr(n))
	t.compute(t.cost.Move * uint64(2*moved+2))
}

// splitLeaf splits the full leaf id around the insertion of
// (key, tid) at position pos and pushes the separator up the recorded
// path. Like every split it allocates before it takes a view.
func (t *Tree) splitLeaf(id nodeID, pos int, key Key, tid TID) {
	t.stats.LeafSplits++
	right := t.view(t.newNode(leafFlag))
	n := t.view(id)
	t.pfNode(right)
	if t.cfg.JumpArray == JumpExternal {
		// Prefetch the jump-pointer chunk lines the hint points at (its
		// header and the hinted slot), so the fetch overlaps the key
		// redistribution below.
		h := t.hint(n)
		t.prefetch(h.chunk.addr)
		t.prefetch(h.chunk.slotAddr(h.slot))
	}

	keys, tids, cnt := t.keys(n), t.ptrs(n), n.count()
	total := cnt + 1
	half := total / 2 // pairs staying in n

	// Assemble the combined order in scratch space, then copy the two
	// halves back out.
	sk, st := t.scratch(total)
	copy(sk, keys[:pos])
	copy(st, tids[:pos])
	sk[pos] = uint32(key)
	st[pos] = uint32(tid)
	copy(sk[pos+1:], keys[pos:cnt])
	copy(st[pos+1:], tids[pos:cnt])

	n.setCount(copy(keys, sk[:half]))
	copy(tids, st[:half])
	right.setCount(copy(t.keys(right), sk[half:total]))
	copy(t.ptrs(right), st[half:total])

	if t.sim != nil {
		t.setNext(right, t.next(n))
		t.setNext(n, right.id)
		t.access(t.leafLay.nextAddr(t.addr(n)))
		t.access(t.leafLay.nextAddr(t.addr(right)))
	}

	// Charge the data movement: the whole right half is written, and
	// the left half shifted from pos onward (if the new pair landed
	// there).
	t.chargeLeafWriteCost(right, 0, right.count())
	if pos < half {
		t.chargeLeafWriteCost(n, pos, half)
	}
	t.access(t.addr(n))

	if t.cfg.JumpArray == JumpExternal {
		t.jpInsertAfter(n, right)
	}
	t.insertIntoParent(Key(t.keys(right)[0]), right.id)
}

// chargeLeafWriteCost charges writing entries [from, to) of a leaf.
func (t *Tree) chargeLeafWriteCost(n node, from, to int) {
	if to <= from {
		return
	}
	t.accessRange(t.leafLay.keyAddr(t.addr(n), from), (to-from)*fieldSize)
	t.accessRange(t.leafLay.ptrAddr(t.addr(n), from), (to-from)*fieldSize)
	t.compute(t.cost.Move * uint64(2*(to-from)))
}

// insertIntoParent inserts (sep, right) above the node that just
// split, walking the descent path upward and splitting further as
// needed.
func (t *Tree) insertIntoParent(sep Key, right nodeID) {
	for level := len(t.path) - 1; ; level-- {
		if level < 0 {
			t.growRoot(sep, right)
			return
		}
		p := t.path[level]
		n := t.view(p.id)
		t.traceNode(level, n.kind)
		if !t.full(n) {
			t.nonLeafInsertAt(n, p.idx, sep, right)
			return
		}
		sep, right = t.splitNonLeaf(p.id, p.idx, sep, right)
	}
}

// growRoot replaces the root with a new node over {old root, right}.
func (t *Tree) growRoot(sep Key, right nodeID) {
	var flags uint32
	if t.height == 1 {
		flags = bottomFlag
	}
	r := t.view(t.newNode(flags))
	t.traceNode(0, r.kind)
	t.pfNode(r)
	t.keys(r)[0] = uint32(sep)
	t.ptrs(r)[0] = uint32(t.root)
	t.ptrs(r)[1] = uint32(right)
	r.setCount(1)
	t.chargeNonLeafWrite(r, 0, 1)
	t.root = r.id
	t.height++
	if r.bottom() && t.cfg.JumpArray == JumpInternal {
		t.firstBottom = r.id
	}
}

// nonLeafInsertAt inserts separator sep at key position idx and child
// right at position idx+1 of a non-full non-leaf node.
func (t *Tree) nonLeafInsertAt(n node, idx int, sep Key, right nodeID) {
	keys, children, cnt := t.keys(n), t.ptrs(n), n.count()
	moved := cnt - idx
	copy(keys[idx+1:cnt+1], keys[idx:cnt])
	copy(children[idx+2:cnt+2], children[idx+1:cnt+1])
	keys[idx] = uint32(sep)
	children[idx+1] = uint32(right)
	n.setCount(cnt + 1)
	t.accessRange(t.lay(n).keyAddr(t.addr(n), idx), (moved+1)*fieldSize)
	t.accessRange(t.lay(n).ptrAddr(t.addr(n), idx+1), (moved+1)*fieldSize)
	t.access(t.addr(n))
	t.compute(t.cost.Move * uint64(2*moved+2))
}

// splitNonLeaf splits the full non-leaf node id around the insertion
// of (sep, right) at key position idx. It returns the promoted
// separator and the new right sibling.
func (t *Tree) splitNonLeaf(id nodeID, idx int, sep Key, right nodeID) (Key, nodeID) {
	t.stats.NonLeafSplits++
	nn := t.view(t.newNode(t.locate(id).w[0] & bottomFlag))
	n := t.view(id)
	lay := t.lay(n)
	t.pfNode(nn)

	keys, children, cnt := t.keys(n), t.ptrs(n), n.count()
	total := cnt + 1 // keys including the new separator
	sk, sc := t.scratch(total)
	copy(sk, keys[:idx])
	sk[idx] = uint32(sep)
	copy(sk[idx+1:], keys[idx:cnt])
	copy(sc, children[:idx+1])
	sc[idx+1] = uint32(right)
	copy(sc[idx+2:], children[idx+1:cnt+1])

	mid := total / 2
	promoted := Key(sk[mid])

	copy(keys, sk[:mid])
	copy(children, sc[:mid+1])
	n.setCount(mid)

	copy(t.keys(nn), sk[mid+1:total])
	copy(t.ptrs(nn), sc[mid+1:total+1])
	nn.setCount(total - mid - 1)

	if n.bottom() && t.cfg.JumpArray == JumpInternal {
		t.setNext(nn, t.next(n))
		t.setNext(n, nn.id)
		t.access(t.bottomLay.nextAddr(t.addr(n)))
		t.access(t.bottomLay.nextAddr(t.addr(nn)))
	}

	t.chargeNonLeafWrite(nn, 0, nn.count())
	if idx < mid {
		t.accessRange(lay.keyAddr(t.addr(n), idx), (mid-idx)*fieldSize)
		t.accessRange(lay.ptrAddr(t.addr(n), idx+1), (mid-idx)*fieldSize)
		t.compute(t.cost.Move * uint64(2*(mid-idx)))
	}
	t.access(t.addr(n))
	return promoted, nn.id
}

// scratch returns scratch word slices for n keys and n+1 child ids (or
// n tupleIDs).
func (t *Tree) scratch(n int) (keys, ptrs []uint32) {
	if cap(t.skeys) < n+1 {
		t.skeys = make([]uint32, n+1)
		t.sptrs = make([]uint32, n+1)
	}
	return t.skeys[:n], t.sptrs[:n+1]
}
