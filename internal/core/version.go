package core

import "slices"

// Versions of one tree: copy-on-write publication on arena blocks.
//
// Fork freezes a tree and returns its successor, a writable version
// over the same arena. While an older version is live (not yet
// released), the successor's Insert and Delete first make every block
// they are about to write its own — a block an older version can reach
// is copied into a fresh one and the copy patched into its (already
// owned) parent, from the root down — so the frozen version's header
// and blocks never change again and any number of readers may use it
// while its successor is written; with none live they write in place.
// A version is a root id, a height, a count and a view of the slab
// table; what the versions share is the arena (node.go).
//
// A block the writer replaces or empties is retired, not freed: older
// versions may still reach it. Release says a frozen version has no
// reader left; a retired block rejoins the free list once no live
// version is older than the version that retired it. Nothing here
// waits: a version pinned for an hour delays the reuse of the blocks
// retired since, and nothing else.
//
// Sibling links cannot survive a path copy (a leaf's left neighbour
// would have to be copied to point at the copy, and so on down the
// chain), which is why no native tree has them: its scans take the
// next leaf from the bottom non-leaf node's child words, as the
// paper's internal jump-pointer array does (scan.go), and the plumbing
// walks (AppendPairs, WriteTo, CheckInvariants) go through the
// non-leaf levels on every tree.

// Fork freezes t for good and returns the next version of it. Only a
// native tree has versions (a simulated tree charges no copies);
// anything else, or a tree that already has a successor, is a caller's
// bug and panics. Fork costs no more than the header copy — the first
// one also allocates the arena's four-byte-a-block birth table.
func (t *Tree) Fork() *Tree {
	next := new(Tree)
	t.ForkInto(next)
	return next
}

// ForkInto is Fork into storage of the caller's: a serving snapshot
// holds its version by value and is one allocation, not two.
func (t *Tree) ForkInto(next *Tree) {
	a := t.ar
	switch {
	case t.sim != nil:
		panic("core: Fork needs a native tree")
	case t.epoch != a.epoch:
		panic("core: Fork of a version that already has a successor")
	}
	if a.born == nil {
		a.born = make([]uint32, a.high+1)
	}
	a.live = append(a.live, a.epoch)
	a.epoch++
	if uint32(a.epoch) == 0 {
		// The birth table holds low words: start the cycle clean, and
		// skip the word that would make every block the new version's.
		clear(a.born)
		a.epoch++
	}
	*next = *t
	next.epoch, next.copied = a.epoch, 0
}

// Release says that old, a frozen version of t's lineage, has no
// reader left and will get none, and puts every retired block no live
// version can reach any more back on the free list. t is the lineage's
// newest version; a version of another lineage (t was rebuilt since)
// is ignored — that arena is the garbage collector's.
func (t *Tree) Release(old *Tree) {
	a := t.ar
	if old.ar != a {
		return
	}
	i, ok := slices.BinarySearch(a.live, old.epoch)
	if !ok {
		return
	}
	a.live = slices.Delete(a.live, i, i+1)
	oldest := a.epoch
	if len(a.live) > 0 {
		oldest = a.live[0]
	}
	m, n := 0, 0
	for ; m < len(a.marks) && a.marks[m].epoch <= oldest; m++ {
		n += a.marks[m].n
	}
	if m == 0 {
		return // the oldest live version holds everything up
	}
	for _, id := range a.retired[:n] {
		t.recycle(id)
	}
	// Shift what stays down rather than slicing the front off, so both
	// queues keep their arrays.
	a.retired = a.retired[:copy(a.retired, a.retired[n:])]
	a.marks = a.marks[:copy(a.marks, a.marks[m:])]
}

// Copied reports how many blocks this version has copied so far.
func (t *Tree) Copied() int { return t.copied }

// Retired reports how many blocks of t's lineage wait for an older
// version to be released. Like every look at the arena it belongs to
// the goroutine that writes the tree.
func (t *Tree) Retired() int { return len(t.ar.retired) }

// Blocks reports how many blocks the arena has carved — its size,
// free and retired blocks included; the writer's to call, like
// Retired.
func (t *Tree) Blocks() int { return int(t.ar.high) }

// olderLive reports whether a frozen version is still live: the one
// thing that makes a write copy a block before writing it.
func (t *Tree) olderLive() bool { return len(t.ar.live) > 0 }

// mustWrite panics unless t is its lineage's writable version.
func (t *Tree) mustWrite() {
	if t.epoch != t.ar.epoch {
		panic("core: write to a frozen version")
	}
}

// retire queues a block the writable version did not make, and took
// out of the tree, until no older version that can reach it is live.
func (t *Tree) retire(id nodeID) {
	a := t.ar
	if n := len(a.marks); n == 0 || a.marks[n-1].epoch != a.epoch {
		a.marks = append(a.marks, retireMark{epoch: a.epoch})
	}
	a.retired = append(a.retired, id)
	a.marks[len(a.marks)-1].n++
}

// owns reports whether this version made the block, and so may write
// it. It is asked only while an older version is live: otherwise the
// writer owns everything.
func (t *Tree) owns(id nodeID) bool { return t.ar.born[id] == uint32(t.epoch) }

// own returns the block to write in the place of id, which is child
// idx of the owned node parent (the root if parent is 0): id itself if
// this version made it, else a copy, patched into the parent, with id
// retired. Copying allocates, so views taken earlier are stale.
func (t *Tree) own(id, parent nodeID, idx int) nodeID {
	if t.owns(id) {
		return id
	}
	c := t.allocBlock()
	copy(t.locate(c).w, t.locate(id).w)
	t.retire(id)
	t.copied++
	if parent == 0 {
		t.root = c
	} else {
		t.ptrs(t.view(parent))[idx] = uint32(c)
	}
	return c
}

// ownPath makes the descent just recorded in t.path, and the leaf
// under it, this version's own, top down — after the first write of a
// version that is one birth-table look per level — and returns the
// leaf. Insert and Delete call it before they write while an older
// version is live.
func (t *Tree) ownPath(leaf nodeID) node {
	parent, idx := nodeID(0), 0
	for i := range t.path {
		p := &t.path[i]
		p.id = t.own(p.id, parent, idx)
		parent, idx = p.id, p.idx
	}
	return t.view(t.own(leaf, parent, idx))
}

// ownSibling is own for child idx of parent, which fixEmpty is about
// to write beside n; it returns fresh views of all three.
func (t *Tree) ownSibling(parent node, idx int, n node) (sib, self, par node) {
	s := t.own(nodeID(t.ptrs(parent)[idx]), parent.id, idx)
	return t.view(s), t.view(n.id), t.view(parent.id)
}

// eachLeaf calls f with every leaf under id, in key order, until f
// returns false, and reports whether it got to the end. It finds the
// leaves through the non-leaf levels, so it serves every tree, linked
// or not, and it charges nothing: the walk of AppendPairs, WriteTo and
// the invariant checks. A native tree prefetches a bottom node's next
// child while f reads the current one: nothing on a fresh tree, whose
// leaves lie in order, and 7.3 against 4.6 ns a row on one whose every
// leaf has been rewritten (AppendPairs, 8 M keys).
func (t *Tree) eachLeaf(id nodeID, f func(leaf node) bool) bool {
	n := t.view(id)
	if n.leaf() {
		return f(n)
	}
	children := t.ptrs(n)[:n.count()+1]
	for i, c := range children {
		if t.sim == nil && n.bottom() && i+1 < len(children) {
			t.pfNode(t.locate(nodeID(children[i+1])))
		}
		if !t.eachLeaf(nodeID(c), f) {
			return false
		}
	}
	return true
}
