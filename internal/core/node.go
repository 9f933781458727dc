package core

// node is a B+-Tree node. The Go struct holds the data; addr is the
// node's simulated address, which determines its cache behaviour. A
// node is exactly one of: a leaf (leaf == true), a bottom non-leaf
// (parent of leaves), or an upper non-leaf.
type node struct {
	addr   uint64
	leaf   bool
	bottom bool // non-leaf whose children are leaves
	nkeys  int

	keys []Key

	// Non-leaf only. children[i] covers keys k with
	// keys[i-1] <= k < keys[i] (children has nkeys+1 valid entries).
	children []*node

	// Leaf only. tids[i] belongs to keys[i].
	tids []TID

	// next links leaves in key order; for bottom non-leaf nodes it is
	// the internal jump-pointer array link (JumpInternal only).
	next *node

	// hint is the leaf's back-pointer into the external jump-pointer
	// array (JumpExternal only). The chunk is always correct; the slot
	// index is a hint that may be stale.
	hint hintPos
}

// hintPos locates (approximately) a leaf's jump pointer.
type hintPos struct {
	chunk *chunk
	slot  int
}

// lay returns the node's layout.
func (t *Tree) lay(n *node) layout {
	switch {
	case n.leaf:
		return t.leafLay
	case n.bottom:
		return t.bottomLay
	default:
		return t.nlLay
	}
}

// newLeaf allocates a leaf node with a fresh simulated address.
func (t *Tree) newLeaf() *node {
	return &node{
		addr: t.space.Alloc(t.leafLay.size),
		leaf: true,
		keys: make([]Key, t.leafLay.maxKeys),
		tids: make([]TID, t.leafLay.maxKeys),
	}
}

// newNonLeaf allocates a non-leaf node. bottom marks parents of
// leaves, which have a reduced layout when an internal jump-pointer
// array is in use.
func (t *Tree) newNonLeaf(bottom bool) *node {
	l := t.nlLay
	if bottom {
		l = t.bottomLay
	}
	return &node{
		addr:     t.space.Alloc(l.size),
		bottom:   bottom,
		keys:     make([]Key, l.maxKeys),
		children: make([]*node, l.maxKeys+1),
	}
}

// full reports whether the node has no room for another key.
func (t *Tree) full(n *node) bool { return n.nkeys == t.lay(n).maxKeys }
