package core

// layout describes the physical layout of one node role (leaf,
// non-leaf, or bottom non-leaf) for a given node width. One table
// serves both memories: a byte offset added to a node's simulated
// address decides which cache lines the model sees touched, and the
// same offset divided by fieldSize is the word of the node's real
// block (node.go) that holds the field. The counts reproduce the node
// capacities of section 4.1.2 of the paper:
//
//	w=1 non-leaf: keynum + 7 keys + 8 childptrs            (64 B)
//	w=1 leaf:     keynum + 7 keys + 7 tupleIDs + next      (64 B)
//	w=8 non-leaf: keynum + 63 keys + 64 childptrs          (512 B)
//	w=8 leaf:     keynum + 63 keys + 63 tupleIDs + next    (512 B)
//	p8e leaf:     one key/tupleID fewer, plus a hint field
//	p8i bottom non-leaf: one key/childptr fewer, plus next
//
// Keys are stored before pointers/tupleIDs (the paper's layout
// optimization), so a binary search touches only key lines until the
// final pointer read.
type layout struct {
	size    int // node size in bytes (width * line size)
	maxKeys int // capacity in keys
	maxPtrs int // capacity in child ids (maxKeys+1) or tupleIDs (maxKeys)
	keyOff  int // byte offset of keys[0]
	ptrOff  int // byte offset of childptr[0] (non-leaf) or tid[0] (leaf)
	nextOff int // byte offset of the next pointer, or -1
	hintOff int // byte offset of the hint field, or -1
}

// layouts computes the three node layouts for a resolved Config.
// lineSize is the cache line size of the memory hierarchy.
func layoutsFor(cfg Config, lineSize int) (leaf, nonLeaf, bottom layout) {
	size := cfg.Width * lineSize
	fields := size / fieldSize
	wm := fields / 2 // pointers per full-width non-leaf node (w*m)

	// Non-leaf: keynum + (wm-1) keys + wm childptrs == fields.
	nonLeaf = layout{
		size:    size,
		maxKeys: wm - 1,
		maxPtrs: wm,
		keyOff:  fieldSize,
		ptrOff:  fieldSize * wm,
		nextOff: -1,
		hintOff: -1,
	}

	// Bottom non-leaf: identical unless an internal jump-pointer array
	// is in use, in which case one key/childptr pair is given up for a
	// next-sibling pointer (stored in the node's last field).
	bottom = nonLeaf
	if cfg.JumpArray == JumpInternal {
		bottom.maxKeys = wm - 2
		bottom.maxPtrs = wm - 1
		bottom.ptrOff = fieldSize * (wm - 1)
		bottom.nextOff = size - fieldSize
	}

	// Leaf: keynum [+ hint] + K keys + K tids + next.
	leafKeys := wm - 1
	keyOff := fieldSize
	hintOff := -1
	if cfg.JumpArray == JumpExternal {
		leafKeys = wm - 2
		hintOff = fieldSize
		keyOff = 2 * fieldSize
	}
	leaf = layout{
		size:    size,
		maxKeys: leafKeys,
		maxPtrs: leafKeys,
		keyOff:  keyOff,
		ptrOff:  keyOff + fieldSize*leafKeys,
		nextOff: size - fieldSize,
		hintOff: hintOff,
	}
	return leaf, nonLeaf, bottom
}

// keyAddr returns the simulated address of keys[i] in a node placed at
// base.
func (l layout) keyAddr(base uint64, i int) uint64 {
	return base + uint64(l.keyOff+i*fieldSize)
}

// ptrAddr returns the simulated address of childptr[i] / tid[i].
func (l layout) ptrAddr(base uint64, i int) uint64 {
	return base + uint64(l.ptrOff+i*fieldSize)
}

// nextAddr returns the simulated address of the next pointer.
func (l layout) nextAddr(base uint64) uint64 {
	return base + uint64(l.nextOff)
}

// hintAddr returns the simulated address of the hint field.
func (l layout) hintAddr(base uint64) uint64 {
	return base + uint64(l.hintOff)
}
