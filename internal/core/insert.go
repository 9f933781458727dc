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
	t.mem.Compute(t.cost.Op)
	leaf, ub, found := t.findLeaf(key)
	if found {
		i := ub - 1
		t.mem.Access(t.leafLay.ptrAddr(leaf.addr, i))
		t.mem.Compute(t.cost.Copy)
		leaf.tids[i] = tid
		return false
	}
	t.stats.Inserts++
	t.count++
	splitsBefore := t.stats.LeafSplits + t.stats.NonLeafSplits
	nlSplitsBefore := t.stats.NonLeafSplits

	if t.full(leaf) {
		t.splitLeaf(leaf, ub, key, tid)
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
func (t *Tree) leafInsertAt(n *node, pos int, key Key, tid TID) {
	moved := n.nkeys - pos
	copy(n.keys[pos+1:n.nkeys+1], n.keys[pos:n.nkeys])
	copy(n.tids[pos+1:n.nkeys+1], n.tids[pos:n.nkeys])
	n.keys[pos] = key
	n.tids[pos] = tid
	n.nkeys++
	t.mem.AccessRange(t.leafLay.keyAddr(n.addr, pos), (moved+1)*fieldSize)
	t.mem.AccessRange(t.leafLay.ptrAddr(n.addr, pos), (moved+1)*fieldSize)
	t.mem.Access(n.addr)
	t.mem.Compute(t.cost.Move * uint64(2*moved+2))
}

// splitLeaf splits a full leaf around the insertion of (key, tid) at
// position pos and pushes the separator up the recorded path.
func (t *Tree) splitLeaf(n *node, pos int, key Key, tid TID) {
	t.stats.LeafSplits++
	right := t.newLeaf()
	t.pfNode(right)
	if t.cfg.JumpArray == JumpExternal {
		// Prefetch the jump-pointer chunk lines the hint points at, so
		// the fetch overlaps the key redistribution below.
		t.pfHint(n.hint)
	}

	total := n.nkeys + 1
	half := total / 2 // pairs staying in n

	// Assemble the combined order in scratch space, then copy the two
	// halves back out.
	sk, st := t.scratchLeaf(total)
	copy(sk, n.keys[:pos])
	copy(st, n.tids[:pos])
	sk[pos] = key
	st[pos] = tid
	copy(sk[pos+1:], n.keys[pos:n.nkeys])
	copy(st[pos+1:], n.tids[pos:n.nkeys])

	n.nkeys = copy(n.keys, sk[:half])
	copy(n.tids, st[:half])
	right.nkeys = copy(right.keys, sk[half:])
	copy(right.tids, st[half:])

	right.next = n.next
	n.next = right
	t.mem.Access(t.leafLay.nextAddr(n.addr))
	t.mem.Access(t.leafLay.nextAddr(right.addr))

	// Charge the data movement: the whole right half is written, and
	// the left half shifted from pos onward (if the new pair landed
	// there).
	t.chargeLeafWriteCost(right, 0, right.nkeys)
	if pos < half {
		t.chargeLeafWriteCost(n, pos, half)
	}
	t.mem.Access(n.addr)

	if t.cfg.JumpArray == JumpExternal {
		t.jpInsertAfter(n, right)
	}
	t.insertIntoParent(right.keys[0], right)
}

// chargeLeafWriteCost charges writing entries [from, to) of a leaf.
func (t *Tree) chargeLeafWriteCost(n *node, from, to int) {
	if to <= from {
		return
	}
	t.mem.AccessRange(t.leafLay.keyAddr(n.addr, from), (to-from)*fieldSize)
	t.mem.AccessRange(t.leafLay.ptrAddr(n.addr, from), (to-from)*fieldSize)
	t.mem.Compute(t.cost.Move * uint64(2*(to-from)))
}

// insertIntoParent inserts (sep, right) above the node that just
// split, walking the descent path upward and splitting further as
// needed.
func (t *Tree) insertIntoParent(sep Key, right *node) {
	for level := len(t.path) - 1; ; level-- {
		if level < 0 {
			t.growRoot(sep, right)
			return
		}
		p := t.path[level]
		t.traceNode(level, kindOf(p.n))
		if !t.full(p.n) {
			t.nonLeafInsertAt(p.n, p.idx, sep, right)
			return
		}
		sep, right = t.splitNonLeaf(p.n, p.idx, sep, right)
	}
}

// growRoot replaces the root with a new node over {old root, right}.
func (t *Tree) growRoot(sep Key, right *node) {
	old := t.root
	newRoot := t.newNonLeaf(old.leaf)
	t.traceNode(0, kindOf(newRoot))
	t.pfNode(newRoot)
	newRoot.keys[0] = sep
	newRoot.children[0] = old
	newRoot.children[1] = right
	newRoot.nkeys = 1
	t.chargeNonLeafWrite(newRoot, 0, 1)
	t.root = newRoot
	t.height++
	if newRoot.bottom && t.cfg.JumpArray == JumpInternal {
		t.firstBottom = newRoot
	}
}

// nonLeafInsertAt inserts separator sep at key position idx and child
// right at position idx+1 of a non-full non-leaf node.
func (t *Tree) nonLeafInsertAt(n *node, idx int, sep Key, right *node) {
	moved := n.nkeys - idx
	copy(n.keys[idx+1:n.nkeys+1], n.keys[idx:n.nkeys])
	copy(n.children[idx+2:n.nkeys+2], n.children[idx+1:n.nkeys+1])
	n.keys[idx] = sep
	n.children[idx+1] = right
	n.nkeys++
	lay := t.lay(n)
	t.mem.AccessRange(lay.keyAddr(n.addr, idx), (moved+1)*fieldSize)
	t.mem.AccessRange(lay.ptrAddr(n.addr, idx+1), (moved+1)*fieldSize)
	t.mem.Access(n.addr)
	t.mem.Compute(t.cost.Move * uint64(2*moved+2))
}

// splitNonLeaf splits a full non-leaf node around the insertion of
// (sep, right) at key position idx. It returns the promoted separator
// and the new right sibling.
func (t *Tree) splitNonLeaf(n *node, idx int, sep Key, right *node) (Key, *node) {
	t.stats.NonLeafSplits++
	lay := t.lay(n)
	nn := t.newNonLeaf(n.bottom)
	t.pfNode(nn)

	total := n.nkeys + 1 // keys including the new separator
	sk, sc := t.scratchNonLeaf(total)
	copy(sk, n.keys[:idx])
	sk[idx] = sep
	copy(sk[idx+1:], n.keys[idx:n.nkeys])
	copy(sc, n.children[:idx+1])
	sc[idx+1] = right
	copy(sc[idx+2:], n.children[idx+1:n.nkeys+1])

	mid := total / 2
	promoted := sk[mid]

	copy(n.keys, sk[:mid])
	copy(n.children, sc[:mid+1])
	for i := mid + 1; i < len(n.children); i++ {
		n.children[i] = nil // drop stale child pointers
	}
	n.nkeys = mid

	copy(nn.keys, sk[mid+1:])
	copy(nn.children, sc[mid+1:total+1])
	nn.nkeys = total - mid - 1

	if n.bottom && t.cfg.JumpArray == JumpInternal {
		nn.next = n.next
		n.next = nn
		t.mem.Access(t.bottomLay.nextAddr(n.addr))
		t.mem.Access(t.bottomLay.nextAddr(nn.addr))
	}

	t.chargeNonLeafWrite(nn, 0, nn.nkeys)
	if idx < mid {
		t.mem.AccessRange(lay.keyAddr(n.addr, idx), (mid-idx)*fieldSize)
		t.mem.AccessRange(lay.ptrAddr(n.addr, idx+1), (mid-idx)*fieldSize)
		t.mem.Compute(t.cost.Move * uint64(2*(mid-idx)))
	}
	t.mem.Access(n.addr)
	return promoted, nn
}

// scratchLeaf returns scratch key/tid slices of length n.
func (t *Tree) scratchLeaf(n int) ([]Key, []TID) {
	if cap(t.skeys) < n {
		t.skeys = make([]Key, n)
		t.stids = make([]TID, n)
	}
	return t.skeys[:n], t.stids[:n]
}

// scratchNonLeaf returns scratch key/child slices for n keys and n+1
// children.
func (t *Tree) scratchNonLeaf(n int) ([]Key, []*node) {
	if cap(t.skeys) < n {
		t.skeys = make([]Key, n)
		t.stids = make([]TID, n)
	}
	if cap(t.schildren) < n+1 {
		t.schildren = make([]*node, n+1)
	}
	return t.skeys[:n], t.schildren[:n+1]
}
