package core

import "slices"

// A node is one block: Width cache lines of 4-byte words laid out as
// the paper draws it (layout.go) — header, keys, child ids or
// tupleIDs, next last. Blocks live in the tree's arena, pointer-free
// []uint32 slabs, and are named by nodeID, never by Go pointer: a
// descent is one dependent load per level, a node is one prefetch
// range, and the GC neither scans nor marks a tree.

// nodeID names a block: ids count from 1 in carving order, 0 is nil.
type nodeID uint32

// Word 0 of a block: the key count, with the node's role in the top
// bits. A block on the free list has only freeFlag set and links the
// next free block through word 1.
const (
	leafFlag   = 1 << 31
	bottomFlag = 1 << 30 // non-leaf whose children are leaves
	freeFlag   = 1 << 29
	countMask  = freeFlag - 1
)

// slabBytes caps one slab (a slab holds at least one block, however
// wide): a growing tree never asks for more than this at once.
const slabBytes = 1 << 20

// node is a view of one block: where it is and, once its header has
// been read, what it is. Views are values, never stored in the tree
// (four words, which the compiler keeps in registers); one stays valid
// until the next newNode, which may move the slab it points into.
type node struct {
	w    []uint32 // the block
	id   nodeID
	kind NodeKind // KindOther until resolved (see locate)
}

func (n node) count() int     { return int(n.w[0] & countMask) }
func (n node) setCount(k int) { n.w[0] = n.w[0]&^countMask | uint32(k) }
func (n node) leaf() bool     { return n.kind == KindLeaf }
func (n node) bottom() bool   { return n.kind == KindBottom }

// lay returns the node's layout.
func (t *Tree) lay(n node) *layout {
	switch n.kind {
	case KindLeaf:
		return &t.leafLay
	case KindBottom:
		return &t.bottomLay
	default:
		return &t.nlLay
	}
}

// addr returns the node's simulated address. A native tree has none —
// nothing it does is charged anywhere — and reads no side table.
func (t *Tree) addr(n node) uint64 {
	if t.sim == nil {
		return 0
	}
	return t.addrs[n.id]
}

// keys returns the node's key words, full capacity.
func (t *Tree) keys(n node) []uint32 {
	l := t.lay(n)
	o := l.keyOff / fieldSize
	return n.w[o : o+l.maxKeys : o+l.maxKeys]
}

// ptrs returns the words after the keys, full capacity: child ids in a
// non-leaf (ptrs[i] covers keys k with keys[i-1] <= k < keys[i];
// count+1 are valid), tupleIDs in a leaf (ptrs[i] belongs to keys[i]).
func (t *Tree) ptrs(n node) []uint32 {
	l := t.lay(n)
	o := l.ptrOff / fieldSize
	return n.w[o : o+l.maxPtrs : o+l.maxPtrs]
}

// next is the sibling link of a leaf or a JumpInternal bottom node.
func (t *Tree) next(n node) nodeID       { return nodeID(n.w[t.lay(n).nextOff/fieldSize]) }
func (t *Tree) setNext(n node, x nodeID) { n.w[t.lay(n).nextOff/fieldSize] = uint32(x) }

// full reports whether the node has no room for another key.
func (t *Tree) full(n node) bool { return n.count() == t.lay(n).maxKeys }

// hintPos locates (approximately) a leaf's jump pointer: the chunk is
// always correct, the slot index is a hint that may be stale.
type hintPos struct {
	chunk *chunk
	slot  int
}

// hint decodes a leaf's back-pointer into the external jump-pointer
// array (JumpExternal only). The hint field holds the chunk's index in
// t.chunks; the slot index sits in the word the p^w_e leaf leaves
// spare before next, which the model never charges — to it the hint is
// the paper's single field.
func (t *Tree) hint(leaf node) hintPos {
	return hintPos{t.chunks[leaf.w[t.leafLay.hintOff/fieldSize]], int(leaf.w[len(leaf.w)-2])}
}

func (t *Tree) setHint(leaf node, ck *chunk, slot int) {
	leaf.w[t.leafLay.hintOff/fieldSize], leaf.w[len(leaf.w)-2] = ck.idx, uint32(slot)
}

// locate finds a block without reading it, so the caller can prefetch
// it before the header load that resolve adds.
func (t *Tree) locate(id nodeID) node {
	i := uint32(id - 1)
	off := int(i&t.slabMask) * t.blockWords
	return node{id: id, w: t.slabs[i>>t.slabShift][off : off+t.blockWords : off+t.blockWords]}
}

// view resolves a node: its block plus the kind its header declares.
func (t *Tree) view(id nodeID) node { return resolve(t.locate(id)) }

// resolve reads a located block's header.
func resolve(n node) node {
	switch {
	case n.w[0]&leafFlag != 0:
		n.kind = KindLeaf
	case n.w[0]&bottomFlag != 0:
		n.kind = KindBottom
	default:
		n.kind = KindNonLeaf
	}
	return n
}

// arena is what every version of one tree shares beside the slabs
// themselves: how far they are carved, which blocks are free, and —
// once the tree has been forked (version.go) — which version made each
// block and which blocks wait for a reader of an older version. Only
// the goroutine that owns the writable version touches it; a reader of
// a frozen version reads that version's header and slab table and the
// blocks reachable from its root, nothing else.
type arena struct {
	high nodeID // blocks carved so far: ids 1..high exist
	free nodeID // head of the free list

	// epoch numbers the writable version; 0 until the first Fork. born
	// (nil until then) holds the low word of the epoch that allocated
	// each block — while an older version is live, the writable one may
	// write the blocks it made and must copy any other first.
	epoch uint64
	born  []uint32

	// live is the epochs of the frozen versions not yet released,
	// ascending. retired queues the blocks a version replaced or
	// emptied but did not make, oldest first, and marks cuts the queue
	// by retiring epoch: a run rejoins the free list once no live
	// version is older than the epoch that retired it.
	live    []uint64
	retired []nodeID
	marks   []retireMark
}

// retireMark says the next n blocks of arena.retired were retired by
// the version numbered epoch.
type retireMark struct {
	epoch uint64
	n     int
}

// newNode allocates a zeroed block with the given role flags.
//
// Every node takes a fresh simulated address, recycled block or not
// (simulated addresses are never reused); only a simulated tree keeps
// it, in a side table a native tree does not have. A native tree
// bumps its address space once per carved block, which keeps
// SpaceUsed the real byte count.
func (t *Tree) newNode(flags uint32) nodeID {
	high := t.ar.high
	id := t.allocBlock()
	w, fresh := t.locate(id).w, id > high
	if !fresh {
		clear(w)
	}
	switch {
	case t.sim != nil && fresh:
		t.addrs = append(t.addrs, t.space.Alloc(t.leafLay.size))
	case t.sim != nil:
		t.addrs[id] = t.space.Alloc(t.leafLay.size)
	case fresh:
		t.space.Alloc(t.leafLay.size)
	}
	w[0] = flags
	return id
}

// allocBlock takes a block off the free list if it can — its words are
// whatever they were — and carves a zeroed one if not. All but the
// last slab are full; the last one doubles (from one block) until the
// tree is a slab big, after which slabs are made whole. Doubling moves
// the last slab, so views taken before an allocation are stale: split
// code allocates first. A frozen version keeps reading the slab table
// and the last slab as they were when it was forked, so growth writes
// neither: a new slab is appended past the length an older table has,
// a doubled one goes into a copy of the table.
func (t *Tree) allocBlock() nodeID {
	a := t.ar
	id := a.free
	if id != 0 {
		a.free = nodeID(t.locate(id).w[1])
	} else {
		per := int(t.slabMask) + 1
		s, off := int(a.high)>>t.slabShift, int(uint32(a.high)&t.slabMask)
		switch {
		case s == len(t.slabs):
			t.slabs = append(t.slabs, make([]uint32, min(per, max(1, int(a.high)))*t.blockWords))
		case off*t.blockWords == len(t.slabs[s]):
			grown := make([]uint32, min(per, max(2*off, int(a.high)))*t.blockWords)
			copy(grown, t.slabs[s])
			t.slabs = slices.Clone(t.slabs)
			t.slabs[s] = grown
		}
		a.high++
		id = a.high
		if a.born != nil {
			a.born = append(a.born, 0)
		}
	}
	if a.born != nil {
		a.born[id] = uint32(a.epoch)
	}
	return id
}

// freeNode takes a block that is no longer reachable from the root out
// of the tree: onto the retire queue if an older live version can
// still reach it, else onto the free list.
func (t *Tree) freeNode(id nodeID) {
	if t.olderLive() && !t.owns(id) {
		t.retire(id)
		return
	}
	t.recycle(id)
}

// recycle threads a block nothing reaches onto the free list.
func (t *Tree) recycle(id nodeID) {
	w := t.locate(id).w
	w[0], w[1] = freeFlag, uint32(t.ar.free)
	t.ar.free = id
}

// resetArena drops every block and reserves exactly the given number,
// a slab at a time (slab-sized allocations fit the holes an earlier
// tree or the bulkload's input left in the heap, where one tree-sized
// allocation only grows it), so a bulkload of known size neither grows
// a slab nor leaves one half empty. The tree starts a lineage of its
// own: versions of what it held before keep the old arena. addrs[0]
// belongs to the nil id.
func (t *Tree) resetArena(blocks int) {
	per := int(t.slabMask) + 1
	t.slabs = make([][]uint32, 0, (blocks+per-1)/per)
	if t.sim != nil {
		t.addrs = make([]uint64, 1, blocks+1)
	}
	for ; blocks > 0; blocks -= per {
		t.slabs = append(t.slabs, make([]uint32, min(blocks, per)*t.blockWords))
	}
	t.ar, t.epoch = &arena{}, 0
}
