package core

import (
	"fmt"
	"math"
)

// Bulkload replaces the tree's contents with the given pairs, which
// must be sorted by key and contain no duplicates. fill is the
// bulkload factor in (0, 1]: every node (and external jump-pointer
// array chunk) is filled to round(fill * capacity) entries, except the
// rightmost node of each level and the root.
func (t *Tree) Bulkload(pairs []Pair, fill float64) error {
	if fill <= 0 || fill > 1 {
		return fmt.Errorf("core: bulkload factor %v outside (0, 1]", fill)
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Key <= pairs[i-1].Key {
			return fmt.Errorf("core: bulkload input not sorted/unique at %d", i)
		}
	}

	// Reset all structure. Simulated addresses are not recycled.
	t.jpHead = nil
	t.firstBottom = nil
	t.stats = UpdateStats{}
	t.count = len(pairs)

	if len(pairs) == 0 {
		t.root = t.newLeaf()
		t.height = 1
		if t.cfg.JumpArray == JumpExternal {
			t.jpBulkload([]*node{t.root}, fill)
		}
		return nil
	}

	leaves := t.buildLeaves(pairs, fill)
	if t.cfg.JumpArray == JumpExternal {
		t.jpBulkload(leaves, fill)
	}

	// Build non-leaf levels bottom-up until a single node remains.
	level := leaves
	mins := make([]Key, len(leaves))
	for i, n := range leaves {
		mins[i] = n.keys[0]
	}
	t.height = 1
	bottom := true
	for len(level) > 1 {
		level, mins = t.buildNonLeafLevel(level, mins, fill, bottom)
		if bottom && t.cfg.JumpArray == JumpInternal {
			t.firstBottom = level[0]
			for i := 0; i+1 < len(level); i++ {
				level[i].next = level[i+1]
				t.mem.Access(t.bottomLay.nextAddr(level[i].addr))
			}
		}
		bottom = false
		t.height++
	}
	t.root = level[0]
	return nil
}

// fillCount converts a bulkload factor into an entry count for a node
// of the given capacity, rounding to nearest as in the paper.
func fillCount(capacity int, fill float64) int {
	n := int(math.Round(fill * float64(capacity)))
	if n < 1 {
		n = 1
	}
	if n > capacity {
		n = capacity
	}
	return n
}

// buildLeaves lays the pairs into a linked list of leaves, charging
// the writes to the simulated hierarchy.
func (t *Tree) buildLeaves(pairs []Pair, fill float64) []*node {
	per := fillCount(t.leafLay.maxKeys, fill)
	nLeaves := (len(pairs) + per - 1) / per
	leaves := make([]*node, 0, nLeaves)
	for start := 0; start < len(pairs); start += per {
		end := start + per
		if end > len(pairs) {
			end = len(pairs)
		}
		n := t.newLeaf()
		for i, p := range pairs[start:end] {
			n.keys[i] = p.Key
			n.tids[i] = p.TID
		}
		n.nkeys = end - start
		t.chargeLeafWrite(n, 0, n.nkeys)
		if len(leaves) > 0 {
			prev := leaves[len(leaves)-1]
			prev.next = n
			t.mem.Access(t.leafLay.nextAddr(prev.addr))
		}
		leaves = append(leaves, n)
	}
	return leaves
}

// buildNonLeafLevel groups children into non-leaf nodes at the given
// fill and returns the new level with its per-node minimum keys.
func (t *Tree) buildNonLeafLevel(children []*node, mins []Key, fill float64, bottom bool) ([]*node, []Key) {
	lay := t.nlLay
	if bottom {
		lay = t.bottomLay
	}
	per := fillCount(lay.maxKeys, fill) + 1 // children per node
	counts := groupCounts(len(children), per, lay.maxKeys+1)
	level := make([]*node, 0, len(counts))
	newMins := make([]Key, 0, len(counts))
	start := 0
	for _, cnt := range counts {
		end := start + cnt
		n := t.newNonLeaf(bottom)
		for i := start; i < end; i++ {
			n.children[i-start] = children[i]
			if i > start {
				n.keys[i-start-1] = mins[i]
			}
		}
		n.nkeys = end - start - 1
		t.chargeNonLeafWrite(n, 0, n.nkeys)
		level = append(level, n)
		newMins = append(newMins, mins[start])
		start = end
	}
	return level, newMins
}

// groupCounts splits n children into groups of per (capped by cap),
// adjusting the tail so no group ends up with a single child, which
// would make a zero-key non-leaf node.
func groupCounts(n, per, cap int) []int {
	counts := make([]int, 0, (n+per-1)/per)
	for n > 0 {
		c := per
		if c > n {
			c = n
		}
		counts = append(counts, c)
		n -= c
	}
	last := len(counts) - 1
	if last >= 1 && counts[last] == 1 {
		if counts[last-1] < cap {
			// Fold the orphan into its (non-full) neighbour.
			counts[last-1]++
			counts = counts[:last]
		} else {
			// Neighbour is full: rebalance the final two groups.
			total := counts[last-1] + 1
			counts[last-1] = total - total/2
			counts[last] = total / 2
		}
	}
	return counts
}

// chargeLeafWrite charges the simulated accesses and copy cycles for
// writing entries [from, to) of a leaf (keys, tids and keynum).
func (t *Tree) chargeLeafWrite(n *node, from, to int) {
	if to > from {
		t.mem.AccessRange(t.leafLay.keyAddr(n.addr, from), (to-from)*fieldSize)
		t.mem.AccessRange(t.leafLay.ptrAddr(n.addr, from), (to-from)*fieldSize)
		t.mem.Compute(t.cost.Move * uint64(2*(to-from)))
	}
	t.mem.Access(n.addr) // keynum
}

// chargeNonLeafWrite charges writing keys [from, to) and children
// [from, to+1) of a non-leaf node.
func (t *Tree) chargeNonLeafWrite(n *node, from, to int) {
	lay := t.lay(n)
	if to > from {
		t.mem.AccessRange(lay.keyAddr(n.addr, from), (to-from)*fieldSize)
		t.mem.Compute(t.cost.Move * uint64(2*(to-from)+1))
	}
	t.mem.AccessRange(lay.ptrAddr(n.addr, from), (to-from+1)*fieldSize)
	t.mem.Access(n.addr)
}
