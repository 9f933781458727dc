package core

import "fmt"

// CheckInvariants verifies the structural invariants of the tree and
// its jump-pointer array. It walks plain Go memory and charges nothing
// to the simulated hierarchy, so tests can call it freely. On the
// writable version, with no older version live, it also closes the
// block accounting: every carved block is reachable or free. Live
// versions share their arena, so while there are several that sum
// takes all of them at once (the version oracle of the tests does it,
// from the marks of checkVersion and checkFree); the newest version is
// still held to its own part, a frozen one to its structure.
func (t *Tree) CheckInvariants() error {
	a := t.ar
	seen := make([]bool, a.high+1)
	if err := t.checkVersion(seen); err != nil || t.epoch != a.epoch {
		return err
	}
	for _, id := range a.retired {
		if seen[id] {
			return fmt.Errorf("retired block %d is reachable from the writable version", id)
		}
	}
	if err := t.checkFree(seen); err != nil || t.olderLive() {
		return err
	}
	for id := nodeID(1); id <= a.high; id++ {
		if !seen[id] {
			return fmt.Errorf("block %d is neither reachable nor free", id)
		}
	}
	return nil
}

// checkFree walks the free list, which only the newest version's slab
// table is sure to cover: no block on it may be marked in seen, and it
// marks each.
func (t *Tree) checkFree(seen []bool) error {
	a := t.ar
	for id := a.free; id != 0; id = nodeID(t.locate(id).w[1]) {
		if id > a.high || seen[id] {
			return fmt.Errorf("free list holds block %d, past the high-water mark %d or already seen", id, a.high)
		}
		if t.locate(id).w[0] != freeFlag {
			return fmt.Errorf("block %d on the free list is not marked free", id)
		}
		seen[id] = true
	}
	return nil
}

// checkVersion checks what one version can be held to by itself,
// marking in seen the blocks reachable from its root.
func (t *Tree) checkVersion(seen []bool) error {
	if t.root == 0 {
		return fmt.Errorf("nil root")
	}
	var leaves []nodeID
	count := 0
	if err := t.checkNode(t.root, 1, nil, nil, &leaves, &count, seen); err != nil {
		return err
	}
	if count != t.count {
		return fmt.Errorf("count %d, tree reports %d", count, t.count)
	}

	// The leaf chain must visit exactly the in-order leaves; a native
	// tree keeps none.
	if t.sim != nil {
		i := 0
		for id := t.leftmostLeaf(); id != 0; id = t.next(t.view(id)) {
			if i >= len(leaves) || leaves[i] != id {
				return fmt.Errorf("leaf chain diverges from tree order at leaf %d", i)
			}
			i++
		}
		if i != len(leaves) {
			return fmt.Errorf("leaf chain has %d leaves, tree has %d", i, len(leaves))
		}
	}
	for j := 1; j < len(leaves); j++ {
		a, b := t.view(leaves[j-1]), t.view(leaves[j])
		if a.count() > 0 && b.count() > 0 && t.keys(a)[a.count()-1] >= t.keys(b)[0] {
			return fmt.Errorf("leaf %d not key-ordered before leaf %d", j-1, j)
		}
	}

	if t.cfg.JumpArray == JumpInternal {
		if err := t.checkInternalJPA(); err != nil {
			return err
		}
	}
	if t.cfg.JumpArray == JumpExternal {
		if err := t.checkExternalJPA(leaves); err != nil {
			return err
		}
	}
	return nil
}

// checkNode recursively validates the subtree under id at the given
// depth, with optional lower (inclusive) and upper (exclusive) key
// bounds, appending leaves in order, accumulating the pair count and
// marking every block it reaches in seen.
func (t *Tree) checkNode(id nodeID, depth int, lo, hi *uint32, leaves *[]nodeID, count *int, seen []bool) error {
	if id == 0 || id > t.ar.high {
		return fmt.Errorf("child id %d at depth %d outside the arena's 1..%d", id, depth, t.ar.high)
	}
	if seen[id] {
		return fmt.Errorf("block %d reachable twice", id)
	}
	seen[id] = true
	n := t.view(id)
	if n.w[0]&freeFlag != 0 {
		return fmt.Errorf("reachable block %d is marked free", id)
	}
	// The header's role bits must agree with the level.
	if n.leaf() != (depth == t.height) || n.bottom() != (depth == t.height-1) {
		return fmt.Errorf("block %d at depth %d of %d has leaf=%v bottom=%v", id, depth, t.height, n.leaf(), n.bottom())
	}
	keys := t.keys(n)
	cnt := n.count()
	if id != t.root && cnt < 1 {
		return fmt.Errorf("non-root node with %d keys at depth %d", cnt, depth)
	}
	if cnt > t.lay(n).maxKeys {
		return fmt.Errorf("node with %d keys exceeds capacity %d", cnt, t.lay(n).maxKeys)
	}
	for i := 1; i < cnt; i++ {
		if keys[i-1] >= keys[i] {
			return fmt.Errorf("unsorted keys at depth %d", depth)
		}
	}
	if cnt > 0 {
		if lo != nil && keys[0] < *lo {
			return fmt.Errorf("key below lower bound at depth %d", depth)
		}
		if hi != nil && keys[cnt-1] >= *hi {
			return fmt.Errorf("key above upper bound at depth %d", depth)
		}
	}
	if n.leaf() {
		*leaves = append(*leaves, id)
		*count += cnt
		return nil
	}
	for i, c := range t.ptrs(n)[:cnt+1] {
		clo, chi := lo, hi
		if i > 0 {
			clo = &keys[i-1]
		}
		if i < cnt {
			chi = &keys[i]
		}
		// Separators are bounds, not necessarily present keys: lazy
		// deletion may remove the key a separator was copied from. The
		// lo/hi checks above enforce everything that search requires.
		if err := t.checkNode(nodeID(c), depth+1, clo, chi, leaves, count, seen); err != nil {
			return err
		}
	}
	return nil
}

// leftmostLeaf returns the first leaf in key order.
func (t *Tree) leftmostLeaf() nodeID {
	n := t.view(t.root)
	for !n.leaf() {
		n = t.view(nodeID(t.ptrs(n)[0]))
	}
	return n.id
}

// checkInternalJPA validates the bottom non-leaf chain.
func (t *Tree) checkInternalJPA() error {
	var bottoms []nodeID
	var walk func(id nodeID)
	walk = func(id nodeID) {
		n := t.view(id)
		if n.leaf() {
			return
		}
		if n.bottom() {
			bottoms = append(bottoms, id)
			return
		}
		for _, c := range t.ptrs(n)[:n.count()+1] {
			walk(nodeID(c))
		}
	}
	walk(t.root)

	if len(bottoms) == 0 {
		if t.firstBottom != 0 {
			return fmt.Errorf("firstBottom set but no bottom nodes exist")
		}
		return nil
	}
	if t.firstBottom != bottoms[0] {
		return fmt.Errorf("firstBottom does not point at the leftmost bottom node")
	}
	i := 0
	for id := t.firstBottom; id != 0; id = t.next(t.view(id)) {
		if i >= len(bottoms) || bottoms[i] != id {
			return fmt.Errorf("bottom chain diverges at node %d", i)
		}
		i++
	}
	if i != len(bottoms) {
		return fmt.Errorf("bottom chain has %d nodes, tree has %d", i, len(bottoms))
	}
	return nil
}

// checkExternalJPA validates the chunked jump-pointer array against
// the in-order leaves.
func (t *Tree) checkExternalJPA(leaves []nodeID) error {
	if t.jpHead == nil {
		return fmt.Errorf("no jump-pointer array head")
	}
	i := 0
	var prev *chunk
	for ck := t.jpHead; ck != nil; ck = ck.next {
		if ck.prev != prev {
			return fmt.Errorf("chunk prev link broken")
		}
		occupied := 0
		if t.chunks[ck.idx] != ck {
			return fmt.Errorf("chunk %d is not at its index in the chunk table", ck.idx)
		}
		for _, leaf := range ck.slots {
			if leaf == 0 {
				continue
			}
			occupied++
			if i >= len(leaves) || leaves[i] != leaf {
				return fmt.Errorf("jump pointer %d out of order", i)
			}
			if t.hint(t.view(leaf)).chunk != ck {
				return fmt.Errorf("leaf %d hint points at the wrong chunk", i)
			}
			i++
		}
		if occupied != ck.n {
			return fmt.Errorf("chunk count %d, actual %d", ck.n, occupied)
		}
		if occupied == 0 && !(t.jpHead == ck && ck.next == nil) {
			return fmt.Errorf("empty chunk in a multi-chunk array")
		}
		prev = ck
	}
	if i != len(leaves) {
		return fmt.Errorf("jump-pointer array has %d pointers, tree has %d leaves", i, len(leaves))
	}
	return nil
}
