package core

import (
	"math/bits"

	"pbtree/internal/memsys"
)

// UpdateStats counts the structural events of insertions and
// deletions, used by the Figure 13 analysis.
type UpdateStats struct {
	Inserts             uint64 // total insertions
	InsertsWithSplit    uint64 // insertions that split at least one node
	InsertsWithNLSplit  uint64 // insertions that split a non-leaf node too
	LeafSplits          uint64 // leaf nodes split
	NonLeafSplits       uint64 // non-leaf nodes split (including root growth)
	Deletes             uint64 // total deletions of present keys
	NodeDeletes         uint64 // nodes emptied and removed
	Redistributions     uint64 // emptied nodes refilled from a sibling
	ChunkSplits         uint64 // external jump-pointer array chunk splits
	ChunkRemoves        uint64 // external jump-pointer array chunks emptied and removed
	HintRepairs         uint64 // hints found stale and repaired
	JumpPointerInserts  uint64 // leaf pointers added to the jump-pointer array
	JumpPointerRemovals uint64 // leaf pointers removed from the jump-pointer array
}

// Tree is a B+-Tree variant, simulated or native as Config.Mem says.
// Mutating operations (Insert, Delete, Bulkload) are never safe for
// concurrent use. A frozen tree — one that is no longer being mutated,
// e.g. just bulkloaded, or a version that has been forked — supports
// any number of concurrent readers (Search, NewScan/Next,
// EstimateRange, AppendPairs, WriteTo) when it is native, also while
// its successor version is being written; on a *memsys.Hierarchy even
// reads must stay single-threaded, since every operation mutates the
// simulated cache state.
type Tree struct {
	cfg   Config
	space *memsys.AddressSpace
	cost  CostModel
	trc   Tracer // optional op-context tracer, nil when disabled

	// sim is the simulator the tree charges (charge.go), set once by
	// New when Config.Mem is a *memsys.Hierarchy. A native tree — one
	// whose Config.Mem is a *memsys.Native — holds none, and sim == nil
	// alone selects its shape and code path: a native tree charges
	// nothing, searches nodes branchlessly (search.go), issues real
	// prefetch instructions for its real blocks (hwprefetch.go), keeps
	// no sibling links and no jump-pointer array, and scans through its
	// bottom non-leaf nodes (scan.go); a simulated tree runs the paper's
	// probe-per-key binary search, links its leaves, and only ever
	// charges simulated addresses.
	sim *memsys.Hierarchy

	leafLay, nlLay, bottomLay layout

	// The node arena (node.go): fixed-size blocks in pointer-free
	// slabs, named by id. slabs is this version's view of the slab
	// table; ar is the allocation state every version of the tree
	// shares. addrs[id] is a node's simulated address, kept by a
	// simulated tree only.
	blockWords int        // uint32 words per block
	slabShift  uint       // a full slab holds 1<<slabShift blocks
	slabMask   uint32     // 1<<slabShift - 1
	slabs      [][]uint32 // all but the last are full
	ar         *arena
	addrs      []uint64

	// epoch is the version number (version.go): the arena's while t is
	// the writable version, behind it once Fork has frozen t, when
	// Insert and Delete panic. It selects no code path; an older
	// version still live (olderLive) alone selects copy-before-write.
	// copied counts the blocks this version copied.
	epoch  uint64
	copied int

	root   nodeID
	height int // levels, counting the leaf level; 1 for a lone leaf
	count  int // number of <key,tid> pairs

	// External jump-pointer array (JumpExternal only). Chunks stay Go
	// objects; a leaf's hint names its chunk by index in chunks.
	jpHead *chunk
	jpCap  int // pointer slots per chunk
	chunks []*chunk

	// firstBottom is the head of the internal jump-pointer array
	// (JumpInternal only): the leftmost bottom non-leaf node.
	firstBottom nodeID

	stats UpdateStats

	// path is a scratch buffer for the root-to-leaf descent; the
	// s-prefixed slices are scratch space for node splits.
	path  []pathEntry
	skeys []uint32
	sptrs []uint32
}

// pathEntry records one step of a root-to-leaf descent: node id was
// left through its child idx (an id, not a view: splits allocate).
type pathEntry struct {
	id  nodeID
	idx int
}

// New creates an empty tree. See Config for the knobs; the zero Config
// is the plain one-line-node B+-Tree on a default hierarchy.
func New(cfg Config) (*Tree, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	mc := cfg.Mem.Config()
	space := cfg.Space
	if space == nil {
		space = memsys.NewAddressSpace(mc.LineSize)
	}
	t := &Tree{
		cfg:   cfg,
		space: space,
		cost:  cfg.Cost,
		trc:   cfg.Trace,
	}
	t.sim, _ = cfg.Mem.(*memsys.Hierarchy)
	t.leafLay, t.nlLay, t.bottomLay = layoutsFor(cfg, mc.LineSize)
	if cfg.JumpArray == JumpExternal {
		// A chunk is ChunkLines lines: two header pointers (next,
		// prev) followed by leaf-pointer slots.
		t.jpCap = (cfg.ChunkLines*mc.LineSize)/fieldSize - 2
	}
	t.blockWords = t.leafLay.size / fieldSize
	t.slabShift = uint(bits.Len(uint(max(1, slabBytes/t.leafLay.size)))) - 1
	t.slabMask = 1<<t.slabShift - 1
	t.resetArena(1)
	t.root = t.newNode(leafFlag)
	t.height = 1
	if cfg.JumpArray == JumpExternal {
		t.jpBulkload(t.root, 1, 1)
	}
	return t, nil
}

// MustNew is New but panics on error, for tests and examples where the
// configuration is static.
func MustNew(cfg Config) *Tree {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the paper's name for this tree variant ("B+", "p8B+",
// "p8eB+", "p8iB+", ...).
func (t *Tree) Name() string { return t.cfg.name() }

// Config returns the resolved configuration.
func (t *Tree) Config() Config { return t.cfg }

// Mem returns Config.Mem: the simulator a simulated tree charges, the
// line-size carrier of a native one.
func (t *Tree) Mem() memsys.Model { return t.cfg.Mem }

// Height reports the number of levels in the tree, counting the leaf
// level (Table 3 of the paper).
func (t *Tree) Height() int { return t.height }

// Len reports the number of <key, tupleID> pairs in the index.
func (t *Tree) Len() int { return t.count }

// UpdateStats returns the accumulated structural counters.
func (t *Tree) UpdateStats() UpdateStats { return t.stats }

// ResetUpdateStats zeroes the structural counters.
func (t *Tree) ResetUpdateStats() { t.stats = UpdateStats{} }

// SpaceUsed reports the bytes allocated for nodes and jump-pointer
// array chunks. On a simulated tree they are simulated bytes; on a
// native tree they are the real ones — a node is one block of exactly
// the simulated size, counted once however often it is recycled.
func (t *Tree) SpaceUsed() uint64 { return t.space.Used() }

// LeafCapacity reports the maximum number of pairs per leaf node.
func (t *Tree) LeafCapacity() int { return t.leafLay.maxKeys }

// MaxFanout reports the maximum number of children of a non-leaf node.
func (t *Tree) MaxFanout() int { return t.nlLay.maxKeys + 1 }
