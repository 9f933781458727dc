package core

// Delete removes key from the index, reporting whether it was present.
//
// Deletion is lazy, following Rao and Ross as adopted in section 2.1:
// if the leaf holds more than one key, the key is simply removed. Only
// when the last key of a node is deleted do we redistribute keys from
// a sibling (prefetching the sibling first) or remove the node.
func (t *Tree) Delete(key Key) bool {
	if t.trc != nil {
		t.trc.BeginOp(OpDelete)
		defer t.trc.EndOp(OpDelete)
	}
	t.mem.Compute(t.cost.Op)
	leaf, ub, found := t.findLeaf(key)
	if !found {
		return false
	}
	t.stats.Deletes++
	t.count--
	i := ub - 1
	if leaf.nkeys > 1 {
		t.leafRemoveAt(leaf, i)
		return true
	}
	leaf.nkeys = 0
	t.mem.Access(leaf.addr)
	t.fixEmpty(leaf, len(t.path)-1)
	return true
}

// leafRemoveAt removes entry i from a leaf with at least two keys.
func (t *Tree) leafRemoveAt(n *node, i int) {
	moved := n.nkeys - i - 1
	copy(n.keys[i:n.nkeys-1], n.keys[i+1:n.nkeys])
	copy(n.tids[i:n.nkeys-1], n.tids[i+1:n.nkeys])
	n.nkeys--
	if moved > 0 {
		t.mem.AccessRange(t.leafLay.keyAddr(n.addr, i), moved*fieldSize)
		t.mem.AccessRange(t.leafLay.ptrAddr(n.addr, i), moved*fieldSize)
	}
	t.mem.Access(n.addr)
	t.mem.Compute(t.cost.Move * uint64(2*moved))
}

// fixEmpty restores the invariant that every non-root node holds at
// least one key, after node n (at descent-path depth level) was
// emptied. It either refills n from a sibling or removes a node,
// cascading upward when the parent empties in turn.
func (t *Tree) fixEmpty(n *node, level int) {
	for {
		if level < 0 {
			t.collapseRoot()
			return
		}
		p := t.path[level]
		parent, ci := p.n, p.idx
		t.traceNode(level, kindOf(parent))

		var rs, ls *node
		if ci+1 <= parent.nkeys {
			rs = parent.children[ci+1]
		}
		if ci-1 >= 0 {
			ls = parent.children[ci-1]
		}

		switch {
		case rs != nil && rs.nkeys >= 2:
			t.redistributeFromRight(parent, ci, n, rs)
			return
		case ls != nil && ls.nkeys >= 2:
			t.redistributeFromLeft(parent, ci, n, ls)
			return
		case rs != nil:
			// Merge the single-key right sibling into n and remove it.
			t.mergeRightInto(n, rs, parent.keys[ci])
			t.removeChildAt(parent, ci+1)
		case ls != nil:
			// The single-key left sibling absorbs n. An empty leaf has
			// nothing to move, but an empty non-leaf still owns one
			// child that must survive.
			if n.leaf {
				t.unlinkNode(ls, n)
			} else {
				t.mergeIntoLeft(ls, n, parent.keys[ci-1])
			}
			t.removeChildAt(parent, ci)
		default:
			// A non-root node always has a sibling: its parent holds
			// at least one key, because parents that empty are fixed
			// immediately by this very cascade.
			panic("core: empty node with no siblings")
		}
		t.stats.NodeDeletes++
		if parent.nkeys > 0 {
			return
		}
		n, level = parent, level-1
	}
}

// collapseRoot shrinks an empty non-leaf root to its single child.
func (t *Tree) collapseRoot() {
	for !t.root.leaf && t.root.nkeys == 0 {
		wasBottom := t.root.bottom
		t.root = t.root.children[0]
		t.height--
		t.mem.Access(t.lay(t.root).ptrAddr(t.root.addr, 0))
		if wasBottom && t.cfg.JumpArray == JumpInternal {
			t.firstBottom = nil
		}
	}
}

// redistributeFromRight refills empty node n with the first half of
// its right sibling's entries. parent.keys[ci] separates n and rs.
func (t *Tree) redistributeFromRight(parent *node, ci int, n, rs *node) {
	t.stats.Redistributions++
	t.pfNode(rs) // prefetch the sibling (2.1)
	if n.leaf {
		q := (rs.nkeys + 1) / 2
		n.nkeys = copy(n.keys, rs.keys[:q])
		copy(n.tids, rs.tids[:q])
		copy(rs.keys, rs.keys[q:rs.nkeys])
		copy(rs.tids, rs.tids[q:rs.nkeys])
		rs.nkeys -= q
		parent.keys[ci] = rs.keys[0]
		t.chargeLeafWriteCost(n, 0, q)
		t.chargeLeafWriteCost(rs, 0, rs.nkeys)
	} else {
		// n has one child and no keys; pull q children across,
		// rotating separators through the parent.
		q := (rs.nkeys + 1) / 2
		n.keys[0] = parent.keys[ci]
		copy(n.keys[1:q], rs.keys[:q-1])
		copy(n.children[1:q+1], rs.children[:q])
		n.nkeys = q
		parent.keys[ci] = rs.keys[q-1]
		copy(rs.keys, rs.keys[q:rs.nkeys])
		copy(rs.children, rs.children[q:rs.nkeys+1])
		for i := rs.nkeys - q + 1; i <= rs.nkeys; i++ {
			rs.children[i] = nil
		}
		rs.nkeys -= q
		t.chargeNonLeafWrite(n, 0, n.nkeys)
		t.chargeNonLeafWrite(rs, 0, rs.nkeys)
	}
	t.mem.Access(t.lay(parent).keyAddr(parent.addr, ci))
	t.mem.Compute(t.cost.Move)
}

// redistributeFromLeft refills empty node n with the last half of its
// left sibling's entries. parent.keys[ci-1] separates ls and n.
func (t *Tree) redistributeFromLeft(parent *node, ci int, n, ls *node) {
	t.stats.Redistributions++
	t.pfNode(ls)
	if n.leaf {
		q := (ls.nkeys + 1) / 2
		start := ls.nkeys - q
		n.nkeys = copy(n.keys, ls.keys[start:ls.nkeys])
		copy(n.tids, ls.tids[start:ls.nkeys])
		ls.nkeys = start
		parent.keys[ci-1] = n.keys[0]
		t.chargeLeafWriteCost(n, 0, q)
	} else {
		q := (ls.nkeys + 1) / 2
		start := ls.nkeys - q // first moved child index is start+1
		// n's single existing child becomes its last; the moved
		// children go in front, with separators rotated through the
		// parent.
		n.children[q] = n.children[0]
		copy(n.children[:q], ls.children[start+1:ls.nkeys+1])
		n.keys[q-1] = parent.keys[ci-1]
		copy(n.keys[:q-1], ls.keys[start+1:ls.nkeys])
		n.nkeys = q
		parent.keys[ci-1] = ls.keys[start]
		for i := start + 1; i <= ls.nkeys; i++ {
			ls.children[i] = nil
		}
		ls.nkeys = start
		t.chargeNonLeafWrite(n, 0, n.nkeys)
	}
	t.mem.Access(ls.addr)
	t.mem.Access(t.lay(parent).keyAddr(parent.addr, ci-1))
	t.mem.Compute(t.cost.Move)
}

// mergeRightInto moves the single entry of rs into the empty node n
// and splices rs out of the sibling chains. sep is the parent
// separator between n and rs, which the caller removes along with rs.
func (t *Tree) mergeRightInto(n, rs *node, sep Key) {
	t.pfNode(rs)
	if n.leaf {
		// rs holds a single entry.
		n.keys[0], n.tids[0] = rs.keys[0], rs.tids[0]
		n.nkeys = 1
		n.next = rs.next
		t.chargeLeafWriteCost(n, 0, 1)
		t.mem.Access(t.leafLay.nextAddr(n.addr))
		if t.cfg.JumpArray == JumpExternal {
			t.jpRemove(rs)
		}
	} else {
		// n contributes its single child; rs contributes its keys and
		// children, with the old parent separator pulled down between
		// them.
		n.keys[0] = sep
		copy(n.keys[1:rs.nkeys+1], rs.keys[:rs.nkeys])
		copy(n.children[1:rs.nkeys+2], rs.children[:rs.nkeys+1])
		n.nkeys = rs.nkeys + 1
		if n.bottom && t.cfg.JumpArray == JumpInternal {
			n.next = rs.next
			t.mem.Access(t.bottomLay.nextAddr(n.addr))
		}
		t.chargeNonLeafWrite(n, 0, n.nkeys)
	}
}

// unlinkNode splices empty leaf n out of the leaf chain; ls is its
// immediate left sibling under the same parent.
func (t *Tree) unlinkNode(ls, n *node) {
	ls.next = n.next
	t.mem.Access(t.leafLay.nextAddr(ls.addr))
	if t.cfg.JumpArray == JumpExternal {
		t.jpRemove(n)
	}
}

// mergeIntoLeft moves the single child of the empty non-leaf n into
// its single-key left sibling ls, pulling the parent separator down.
// The caller removes n from the parent.
func (t *Tree) mergeIntoLeft(ls, n *node, sep Key) {
	t.pfNode(ls)
	ls.keys[ls.nkeys] = sep
	ls.children[ls.nkeys+1] = n.children[0]
	ls.nkeys++
	lay := t.lay(ls)
	t.mem.Access(lay.keyAddr(ls.addr, ls.nkeys-1))
	t.mem.Access(lay.ptrAddr(ls.addr, ls.nkeys))
	t.mem.Access(ls.addr)
	t.mem.Compute(t.cost.Move * 2)
	if ls.bottom && t.cfg.JumpArray == JumpInternal {
		ls.next = n.next
		t.mem.Access(t.bottomLay.nextAddr(ls.addr))
	}
}

// removeChildAt removes children[j] and its separator from a non-leaf
// node.
func (t *Tree) removeChildAt(parent *node, j int) {
	lay := t.lay(parent)
	ki := j - 1
	if ki < 0 {
		ki = 0
	}
	movedKeys := parent.nkeys - ki - 1
	copy(parent.keys[ki:parent.nkeys-1], parent.keys[ki+1:parent.nkeys])
	copy(parent.children[j:parent.nkeys], parent.children[j+1:parent.nkeys+1])
	parent.children[parent.nkeys] = nil
	parent.nkeys--
	if movedKeys > 0 {
		t.mem.AccessRange(lay.keyAddr(parent.addr, ki), movedKeys*fieldSize)
		t.mem.AccessRange(lay.ptrAddr(parent.addr, j), (movedKeys+1)*fieldSize)
		t.mem.Compute(t.cost.Move * uint64(2*movedKeys+1))
	}
	t.mem.Access(parent.addr)
}

// subtreeMin returns the smallest key stored under n.
func (t *Tree) subtreeMin(n *node) Key {
	for !n.leaf {
		n = n.children[0]
	}
	return n.keys[0]
}
