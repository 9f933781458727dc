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
	t.mustWrite()
	t.compute(t.cost.Op)
	leaf, ub, found := t.findLeaf(key)
	if !found {
		return false
	}
	if t.olderLive() {
		leaf = t.ownPath(leaf.id)
	}
	t.stats.Deletes++
	t.count--
	i := ub - 1
	if leaf.count() > 1 {
		t.leafRemoveAt(leaf, i)
		return true
	}
	leaf.setCount(0)
	t.access(t.addr(leaf))
	t.fixEmpty(leaf, len(t.path)-1)
	return true
}

// leafRemoveAt removes entry i from a leaf with at least two keys.
func (t *Tree) leafRemoveAt(n node, i int) {
	keys, tids, cnt := t.keys(n), t.ptrs(n), n.count()
	moved := cnt - i - 1
	copy(keys[i:cnt-1], keys[i+1:cnt])
	copy(tids[i:cnt-1], tids[i+1:cnt])
	n.setCount(cnt - 1)
	if moved > 0 {
		t.accessRange(t.leafLay.keyAddr(t.addr(n), i), moved*fieldSize)
		t.accessRange(t.leafLay.ptrAddr(t.addr(n), i), moved*fieldSize)
	}
	t.access(t.addr(n))
	t.compute(t.cost.Move * uint64(2*moved))
}

// fixEmpty restores the invariant that every non-root node holds at
// least one key, after node n (at descent-path depth level) was
// emptied. It either refills n from a sibling or removes a node —
// which goes on the free list, or is retired if an older version can
// reach it — cascading upward when the parent empties in turn.
func (t *Tree) fixEmpty(n node, level int) {
	for {
		if level < 0 {
			t.collapseRoot()
			return
		}
		parent, ci := t.view(t.path[level].id), t.path[level].idx
		t.traceNode(level, parent.kind)

		var rs, ls node // rs.id / ls.id stay 0 where there is no sibling
		if ci+1 <= parent.count() {
			rs = t.view(nodeID(t.ptrs(parent)[ci+1]))
		}
		if ci-1 >= 0 {
			ls = t.view(nodeID(t.ptrs(parent)[ci-1]))
		}

		// While an older version is live the writer owns the path, n
		// included, but not n's siblings: the one about to be written
		// is made its own first.
		switch {
		case rs.id != 0 && rs.count() >= 2:
			if t.olderLive() {
				rs, n, parent = t.ownSibling(parent, ci+1, n)
			}
			t.redistributeFromRight(parent, ci, n, rs)
			return
		case ls.id != 0 && ls.count() >= 2:
			if t.olderLive() {
				ls, n, parent = t.ownSibling(parent, ci-1, n)
			}
			t.redistributeFromLeft(parent, ci, n, ls)
			return
		case rs.id != 0:
			// Merge the single-key right sibling into n and remove it.
			t.mergeRightInto(n, rs, Key(t.keys(parent)[ci]))
			t.removeChildAt(parent, ci+1)
			t.freeNode(rs.id)
		case ls.id != 0:
			// The single-key left sibling absorbs n. An empty leaf has
			// nothing to move, but an empty non-leaf still owns one
			// child that must survive.
			switch {
			case !n.leaf():
				if t.olderLive() {
					ls, n, parent = t.ownSibling(parent, ci-1, n)
				}
				t.mergeIntoLeft(ls, n, Key(t.keys(parent)[ci-1]))
			case t.sim != nil:
				t.unlinkNode(ls, n)
			}
			t.removeChildAt(parent, ci)
			t.freeNode(n.id)
		default:
			// A non-root node always has a sibling: its parent holds
			// at least one key, because parents that empty are fixed
			// immediately by this very cascade.
			panic("core: empty node with no siblings")
		}
		t.stats.NodeDeletes++
		if parent.count() > 0 {
			return
		}
		n, level = parent, level-1
	}
}

// collapseRoot shrinks an empty non-leaf root to its single child.
func (t *Tree) collapseRoot() {
	for r := t.view(t.root); !r.leaf() && r.count() == 0; r = t.view(t.root) {
		t.root = nodeID(t.ptrs(r)[0])
		t.height--
		nr := t.view(t.root)
		t.access(t.lay(nr).ptrAddr(t.addr(nr), 0))
		if r.bottom() && t.cfg.JumpArray == JumpInternal {
			t.firstBottom = 0
		}
		t.freeNode(r.id)
	}
}

// redistributeFromRight refills empty node n with the first half of
// its right sibling's entries. parent.keys[ci] separates n and rs.
func (t *Tree) redistributeFromRight(parent node, ci int, n, rs node) {
	t.stats.Redistributions++
	t.pfNode(rs) // prefetch the sibling (2.1)
	nk, np, rk, rp, rc := t.keys(n), t.ptrs(n), t.keys(rs), t.ptrs(rs), rs.count()
	q := (rc + 1) / 2
	if n.leaf() {
		n.setCount(copy(nk, rk[:q]))
		copy(np, rp[:q])
		copy(rk, rk[q:rc])
		copy(rp, rp[q:rc])
		rs.setCount(rc - q)
		t.keys(parent)[ci] = rk[0]
		t.chargeLeafWriteCost(n, 0, q)
		t.chargeLeafWriteCost(rs, 0, rc-q)
	} else {
		// n has one child and no keys; pull q children across,
		// rotating separators through the parent.
		nk[0] = t.keys(parent)[ci]
		copy(nk[1:q], rk[:q-1])
		copy(np[1:q+1], rp[:q])
		n.setCount(q)
		t.keys(parent)[ci] = rk[q-1]
		copy(rk, rk[q:rc])
		copy(rp, rp[q:rc+1])
		rs.setCount(rc - q)
		t.chargeNonLeafWrite(n, 0, q)
		t.chargeNonLeafWrite(rs, 0, rc-q)
	}
	t.access(t.lay(parent).keyAddr(t.addr(parent), ci))
	t.compute(t.cost.Move)
}

// redistributeFromLeft refills empty node n with the last half of its
// left sibling's entries. parent.keys[ci-1] separates ls and n.
func (t *Tree) redistributeFromLeft(parent node, ci int, n, ls node) {
	t.stats.Redistributions++
	t.pfNode(ls)
	nk, np, lk, lp, lc := t.keys(n), t.ptrs(n), t.keys(ls), t.ptrs(ls), ls.count()
	q := (lc + 1) / 2
	start := lc - q // in a non-leaf the first moved child index is start+1
	if n.leaf() {
		n.setCount(copy(nk, lk[start:lc]))
		copy(np, lp[start:lc])
		t.keys(parent)[ci-1] = nk[0]
		t.chargeLeafWriteCost(n, 0, q)
	} else {
		// n's single existing child becomes its last; the moved
		// children go in front, with separators rotated through the
		// parent.
		np[q] = np[0]
		copy(np[:q], lp[start+1:lc+1])
		nk[q-1] = t.keys(parent)[ci-1]
		copy(nk[:q-1], lk[start+1:lc])
		n.setCount(q)
		t.keys(parent)[ci-1] = lk[start]
		t.chargeNonLeafWrite(n, 0, q)
	}
	ls.setCount(start)
	t.access(t.addr(ls))
	t.access(t.lay(parent).keyAddr(t.addr(parent), ci-1))
	t.compute(t.cost.Move)
}

// mergeRightInto moves the single entry of rs into the empty node n
// and splices rs out of the sibling chains. sep is the parent
// separator between n and rs, which the caller removes along with rs.
func (t *Tree) mergeRightInto(n, rs node, sep Key) {
	t.pfNode(rs)
	if n.leaf() {
		// rs holds a single entry.
		t.keys(n)[0], t.ptrs(n)[0] = t.keys(rs)[0], t.ptrs(rs)[0]
		n.setCount(1)
		t.setNext(n, t.next(rs))
		t.chargeLeafWriteCost(n, 0, 1)
		t.access(t.leafLay.nextAddr(t.addr(n)))
		if t.cfg.JumpArray == JumpExternal {
			t.jpRemove(rs)
		}
	} else {
		// n contributes its single child; rs contributes its keys and
		// children, with the old parent separator pulled down between
		// them.
		rc := rs.count()
		t.keys(n)[0] = uint32(sep)
		copy(t.keys(n)[1:rc+1], t.keys(rs)[:rc])
		copy(t.ptrs(n)[1:rc+2], t.ptrs(rs)[:rc+1])
		n.setCount(rc + 1)
		if n.bottom() && t.cfg.JumpArray == JumpInternal {
			t.setNext(n, t.next(rs))
			t.access(t.bottomLay.nextAddr(t.addr(n)))
		}
		t.chargeNonLeafWrite(n, 0, rc+1)
	}
}

// unlinkNode splices empty leaf n out of the leaf chain; ls is its
// immediate left sibling under the same parent.
func (t *Tree) unlinkNode(ls, n node) {
	t.setNext(ls, t.next(n))
	t.access(t.leafLay.nextAddr(t.addr(ls)))
	if t.cfg.JumpArray == JumpExternal {
		t.jpRemove(n)
	}
}

// mergeIntoLeft moves the single child of the empty non-leaf n into
// its single-key left sibling ls, pulling the parent separator down.
// The caller removes n from the parent.
func (t *Tree) mergeIntoLeft(ls, n node, sep Key) {
	t.pfNode(ls)
	lc := ls.count()
	t.keys(ls)[lc] = uint32(sep)
	t.ptrs(ls)[lc+1] = t.ptrs(n)[0]
	ls.setCount(lc + 1)
	t.access(t.lay(ls).keyAddr(t.addr(ls), lc))
	t.access(t.lay(ls).ptrAddr(t.addr(ls), lc+1))
	t.access(t.addr(ls))
	t.compute(t.cost.Move * 2)
	if ls.bottom() && t.cfg.JumpArray == JumpInternal {
		t.setNext(ls, t.next(n))
		t.access(t.bottomLay.nextAddr(t.addr(ls)))
	}
}

// removeChildAt removes children[j] and its separator from a non-leaf
// node.
func (t *Tree) removeChildAt(parent node, j int) {
	keys, children, cnt := t.keys(parent), t.ptrs(parent), parent.count()
	ki := max(j-1, 0)
	movedKeys := cnt - ki - 1
	copy(keys[ki:cnt-1], keys[ki+1:cnt])
	copy(children[j:cnt], children[j+1:cnt+1])
	parent.setCount(cnt - 1)
	if movedKeys > 0 {
		t.accessRange(t.lay(parent).keyAddr(t.addr(parent), ki), movedKeys*fieldSize)
		t.accessRange(t.lay(parent).ptrAddr(t.addr(parent), j), (movedKeys+1)*fieldSize)
		t.compute(t.cost.Move * uint64(2*movedKeys+1))
	}
	t.access(t.addr(parent))
}
