package core

import "fmt"

// CheckInvariants verifies the structural invariants of the tree and
// its jump-pointer array. It walks plain Go memory and charges nothing
// to the simulated hierarchy, so tests can call it freely.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return fmt.Errorf("nil root")
	}
	var leaves []*node
	count := 0
	if err := t.checkNode(t.root, 1, nil, nil, &leaves, &count); err != nil {
		return err
	}
	if count != t.count {
		return fmt.Errorf("count %d, tree reports %d", count, t.count)
	}

	// The leaf chain must visit exactly the in-order leaves.
	i := 0
	for n := t.leftmostLeaf(); n != nil; n = n.next {
		if i >= len(leaves) || leaves[i] != n {
			return fmt.Errorf("leaf chain diverges from tree order at leaf %d", i)
		}
		i++
	}
	if i != len(leaves) {
		return fmt.Errorf("leaf chain has %d leaves, tree has %d", i, len(leaves))
	}
	for j := 1; j < len(leaves); j++ {
		if leaves[j-1].nkeys > 0 && leaves[j].nkeys > 0 &&
			leaves[j-1].keys[leaves[j-1].nkeys-1] >= leaves[j].keys[0] {
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

// checkNode recursively validates the subtree under n at the given
// depth, with optional lower (inclusive) and upper (exclusive) key
// bounds, appending leaves in order and accumulating the pair count.
func (t *Tree) checkNode(n *node, depth int, lo, hi *Key, leaves *[]*node, count *int) error {
	lay := t.lay(n)
	if n != t.root && n.nkeys < 1 {
		return fmt.Errorf("non-root node with %d keys at depth %d", n.nkeys, depth)
	}
	if n.nkeys > lay.maxKeys {
		return fmt.Errorf("node with %d keys exceeds capacity %d", n.nkeys, lay.maxKeys)
	}
	for i := 1; i < n.nkeys; i++ {
		if n.keys[i-1] >= n.keys[i] {
			return fmt.Errorf("unsorted keys at depth %d", depth)
		}
	}
	if n.nkeys > 0 {
		if lo != nil && n.keys[0] < *lo {
			return fmt.Errorf("key below lower bound at depth %d", depth)
		}
		if hi != nil && n.keys[n.nkeys-1] >= *hi {
			return fmt.Errorf("key above upper bound at depth %d", depth)
		}
	}

	if n.leaf {
		if depth != t.height {
			return fmt.Errorf("leaf at depth %d, height is %d", depth, t.height)
		}
		if n.bottom {
			return fmt.Errorf("leaf marked bottom")
		}
		*leaves = append(*leaves, n)
		*count += n.nkeys
		return nil
	}

	childrenAreLeaves := n.children[0].leaf
	if n.bottom != childrenAreLeaves {
		return fmt.Errorf("bottom flag %v but children leaf=%v", n.bottom, childrenAreLeaves)
	}
	for i := 0; i <= n.nkeys; i++ {
		c := n.children[i]
		if c == nil {
			return fmt.Errorf("nil child %d of %d at depth %d", i, n.nkeys, depth)
		}
		if c.leaf != childrenAreLeaves {
			return fmt.Errorf("mixed child kinds at depth %d", depth)
		}
		clo, chi := lo, hi
		if i > 0 {
			clo = &n.keys[i-1]
		}
		if i < n.nkeys {
			chi = &n.keys[i]
		}
		if err := t.checkNode(c, depth+1, clo, chi, leaves, count); err != nil {
			return err
		}
		// Separators are bounds, not necessarily present keys: lazy
		// deletion may remove the key a separator was copied from. The
		// lo/hi checks above enforce everything that search requires.
	}
	for i := n.nkeys + 1; i < len(n.children); i++ {
		if n.children[i] != nil {
			return fmt.Errorf("stale child pointer at slot %d", i)
		}
	}
	return nil
}

// leftmostLeaf returns the first leaf in key order.
func (t *Tree) leftmostLeaf() *node {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	return n
}

// checkInternalJPA validates the bottom non-leaf chain.
func (t *Tree) checkInternalJPA() error {
	var bottoms []*node
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			return
		}
		if n.bottom {
			bottoms = append(bottoms, n)
			return
		}
		for i := 0; i <= n.nkeys; i++ {
			walk(n.children[i])
		}
	}
	walk(t.root)

	if len(bottoms) == 0 {
		if t.firstBottom != nil {
			return fmt.Errorf("firstBottom set but no bottom nodes exist")
		}
		return nil
	}
	if t.firstBottom != bottoms[0] {
		return fmt.Errorf("firstBottom does not point at the leftmost bottom node")
	}
	i := 0
	for n := t.firstBottom; n != nil; n = n.next {
		if i >= len(bottoms) || bottoms[i] != n {
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
func (t *Tree) checkExternalJPA(leaves []*node) error {
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
		for slot, leaf := range ck.slots {
			if leaf == nil {
				continue
			}
			occupied++
			if i >= len(leaves) || leaves[i] != leaf {
				return fmt.Errorf("jump pointer %d out of order", i)
			}
			if leaf.hint.chunk != ck {
				return fmt.Errorf("leaf %d hint points at the wrong chunk", i)
			}
			_ = slot
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
