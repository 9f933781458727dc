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
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Key <= pairs[i-1].Key {
			return fmt.Errorf("core: bulkload input not sorted/unique at %d", i)
		}
	}
	return t.BulkloadSelected(pairs, nil, 0, len(pairs), fill)
}

// BulkloadSelected is Bulkload of the n pairs whose byte in sel is id
// (pairs[:n] when sel is nil), read in place and not checked: the
// caller checked the whole seed, which several shards share, once.
func (t *Tree) BulkloadSelected(pairs []Pair, sel []uint8, id uint8, n int, fill float64) error {
	if fill <= 0 || fill > 1 {
		return fmt.Errorf("core: bulkload factor %v outside (0, 1]", fill)
	}

	// Reset all structure and size the arena up front: the leaves,
	// then every non-leaf level until a single node remains, so the
	// whole tree is one allocation. Simulated addresses are not
	// recycled.
	t.jpHead = nil
	t.chunks = nil
	t.firstBottom = 0
	t.stats = UpdateStats{}
	t.count = n
	t.height = 1

	per := fillCount(t.leafLay.maxKeys, fill)
	nLeaves := max(1, (n+per-1)/per)
	var levels [][]int // children per node of each non-leaf level, bottom-up
	blocks := nLeaves
	for n := nLeaves; n > 1; n = len(levels[len(levels)-1]) {
		lay := &t.nlLay
		if len(levels) == 0 {
			lay = &t.bottomLay
		}
		counts := groupCounts(n, fillCount(lay.maxKeys, fill)+1, lay.maxKeys+1)
		levels = append(levels, counts)
		blocks += len(counts)
	}
	t.resetArena(blocks)

	if n == 0 {
		t.root = t.newNode(leafFlag)
		if t.cfg.JumpArray == JumpExternal {
			t.jpBulkload(t.root, 1, fill)
		}
		return nil
	}

	// A fresh arena hands out consecutive ids, so a level is an id
	// range: first is its leftmost node.
	mins := make([]Key, nLeaves)
	first := t.buildLeaves(pairs, sel, id, n, per, mins)
	if t.cfg.JumpArray == JumpExternal {
		t.jpBulkload(first, nLeaves, fill)
	}
	for i, counts := range levels {
		first, mins = t.buildNonLeafLevel(first, counts, mins, i == 0), mins[:len(counts)]
		if i == 0 && t.cfg.JumpArray == JumpInternal {
			t.firstBottom = first
			for id := first; id+1 < first+nodeID(len(counts)); id++ {
				n := t.view(id)
				t.setNext(n, id+1)
				t.access(t.bottomLay.nextAddr(t.addr(n)))
			}
		}
		t.height++
	}
	t.root = first
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

// buildLeaves lays the n pairs into leaves of per pairs each — a linked
// list of them on a simulated tree — charging the writes to the
// simulated hierarchy, notes each leaf's first key in mins, and returns
// the first leaf.
func (t *Tree) buildLeaves(pairs []Pair, sel []uint8, id uint8, n, per int, mins []Key) nodeID {
	first := t.ar.high + 1
	var prev node
	j := 0 // the next pair of a selection to look at
	for leaf, start := 0, 0; start < n; leaf, start = leaf+1, start+per {
		cnt := min(per, n-start)
		nd := t.view(t.newNode(leafFlag))
		keys, tids := t.keys(nd)[:cnt], t.ptrs(nd)[:cnt]
		if sel == nil {
			for i, p := range pairs[start : start+cnt] {
				keys[i], tids[i] = uint32(p.Key), uint32(p.TID)
			}
		} else {
			j = fillSelected(keys, tids, pairs, sel, id, j)
		}
		mins[leaf] = Key(keys[0])
		nd.setCount(cnt)
		t.chargeLeafWrite(nd, 0, cnt)
		if start > 0 && t.sim != nil {
			t.setNext(prev, nd.id)
			t.access(t.leafLay.nextAddr(t.addr(prev)))
		}
		prev = nd
	}
	return first
}

// fillSelected fills a leaf with the next pairs from pairs[j:] whose
// sel byte is id and returns the index past the last, branch-free (a
// branch mispredicts on half the pairs); inlined, its loop spills.
//
//go:noinline
func fillSelected(keys, tids []uint32, pairs []Pair, sel []uint8, id uint8, j int) int {
	for s := 0; s < len(keys); j++ {
		p := pairs[j]
		keys[s], tids[s] = uint32(p.Key), uint32(p.TID)
		s += int((uint32(sel[j]^id) - 1) >> 31) // 1 when sel[j] == id
	}
	return j
}

// buildNonLeafLevel groups the children first, first+1, ... into
// non-leaf nodes of counts[i] children each and returns the new
// level's first node. mins holds the children's minimum keys and is
// overwritten, in place, with the new level's.
func (t *Tree) buildNonLeafLevel(child nodeID, counts []int, mins []Key, bottom bool) nodeID {
	var flags uint32
	if bottom {
		flags = bottomFlag
	}
	first := t.ar.high + 1
	start := 0
	for j, cnt := range counts {
		n := t.view(t.newNode(flags))
		keys, children := t.keys(n), t.ptrs(n)
		for i := 0; i < cnt; i++ {
			children[i] = uint32(child)
			child++
			if i > 0 {
				keys[i-1] = uint32(mins[start+i])
			}
		}
		n.setCount(cnt - 1)
		t.chargeNonLeafWrite(n, 0, cnt-1)
		mins[j] = mins[start]
		start += cnt
	}
	return first
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
func (t *Tree) chargeLeafWrite(n node, from, to int) {
	if to > from {
		t.accessRange(t.leafLay.keyAddr(t.addr(n), from), (to-from)*fieldSize)
		t.accessRange(t.leafLay.ptrAddr(t.addr(n), from), (to-from)*fieldSize)
		t.compute(t.cost.Move * uint64(2*(to-from)))
	}
	t.access(t.addr(n)) // keynum
}

// chargeNonLeafWrite charges writing keys [from, to) and children
// [from, to+1) of a non-leaf node.
func (t *Tree) chargeNonLeafWrite(n node, from, to int) {
	lay := t.lay(n)
	if to > from {
		t.accessRange(lay.keyAddr(t.addr(n), from), (to-from)*fieldSize)
		t.compute(t.cost.Move * uint64(2*(to-from)+1))
	}
	t.accessRange(lay.ptrAddr(t.addr(n), from), (to-from+1)*fieldSize)
	t.access(t.addr(n))
}
