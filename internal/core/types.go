// Package core implements Prefetching B+-Trees (pB+-Trees) from
// "Improving Index Performance through Prefetching" (Chen, Gibbons,
// Mowry; SIGMOD 2001), together with the plain B+-Tree they are
// measured against.
//
// A Tree is a main-memory B+-Tree whose nodes are Width cache lines
// wide. With Prefetch enabled, every line of a node is prefetched
// before the node is searched, so a wide node costs roughly one miss
// latency plus (Width-1) pipelined transfers instead of Width full
// misses. Range scans can additionally be accelerated with a
// jump-pointer array (external or internal), which lets the scan
// prefetch the leaf that is PrefetchDist nodes ahead, defeating the
// pointer-chasing problem.
//
// On a memsys.Hierarchy all memory behaviour is simulated: the tree
// charges its key comparisons, copies and memory references to the
// hierarchy, and the experiment harness reads execution time off the
// simulated cycle clock. The data itself lives in real memory — every
// node one block of Width lines in a pointer-free arena (node.go) —
// so the trees are also fully functional indexes; on a memsys.Native
// model the same code charges nothing and runs at hardware speed with
// real prefetch instructions (see Config.Mem).
package core

import (
	"fmt"

	"pbtree/internal/memsys"
)

// Key is an index key. Keys, pointers and tupleIDs are all four bytes,
// matching the paper's experimental setup (so a 64-byte line holds
// m = 8 child pointers).
type Key uint32

// TID is a tuple identifier stored in leaf nodes.
type TID uint32

// fieldSize is the size in bytes of every node field (keynum, key,
// child pointer, tupleID, next pointer, hint).
const fieldSize = 4

// Pair is a <key, tupleID> pair, the unit of bulkloading and scanning.
type Pair struct {
	Key Key // index key
	TID TID // tuple identifier the key maps to
}

// JumpArrayKind selects the range-scan prefetching structure attached
// to the tree.
type JumpArrayKind int

const (
	// JumpNone builds no jump-pointer array: scans can prefetch within
	// the current leaf but not across leaves (the p^w B+-Tree).
	JumpNone JumpArrayKind = iota
	// JumpExternal maintains an external chunked jump-pointer array
	// with hint back-pointers in the leaves (the p^w_e B+-Tree, 3.2).
	JumpExternal
	// JumpInternal links the bottom non-leaf nodes and reuses their
	// child pointers as the jump-pointer array (the p^w_i B+-Tree, 3.5).
	JumpInternal
)

// String names the jump-array kind the way variant names render it.
func (k JumpArrayKind) String() string {
	switch k {
	case JumpNone:
		return "none"
	case JumpExternal:
		return "external"
	case JumpInternal:
		return "internal"
	default:
		return fmt.Sprintf("JumpArrayKind(%d)", int(k))
	}
}

// CostModel gives the instruction cost, in cycles, of the index
// operations that are not memory references. The defaults are
// calibrated so that the busy/stall breakdown of the baseline B+-Tree
// matches Figure 1 of the paper to first order (see EXPERIMENTS.md).
type CostModel struct {
	Compare uint64 // one key comparison in a binary search
	Copy    uint64 // per-tuple work in a scan loop (copy + bookkeeping)
	Move    uint64 // one 4-byte field in a bulk move (splits, shifts)
	Visit   uint64 // fixed overhead per node visited
	Op      uint64 // fixed overhead per index operation
}

// DefaultCostModel returns the calibrated cost model. Copy is the
// per-tuple cost of the scan inner loop (a dependent load, a store and
// loop control); Move is the throughput cost of one word inside a bulk
// memmove, which modern cores stream at about a word per cycle.
func DefaultCostModel() CostModel {
	return CostModel{Compare: 4, Copy: 4, Move: 1, Visit: 10, Op: 20}
}

// Config describes a tree variant.
type Config struct {
	// Width is the node width w in cache lines. Width 1 with Prefetch
	// false is the plain B+-Tree baseline.
	Width int

	// Prefetch enables prefetching all lines of a node before
	// searching it, and within-leaf prefetching during scans.
	Prefetch bool

	// JumpArray selects the across-leaf scan prefetching structure.
	// It requires Prefetch and a simulated tree (see Mem).
	JumpArray JumpArrayKind

	// PrefetchDist is k, the number of leaf nodes to prefetch ahead
	// during a range scan. Zero selects ceil(B/w)+1, equation (3) of
	// the paper plus one node of slack.
	PrefetchDist int

	// ChunkLines is c, the size in cache lines of an external
	// jump-pointer array chunk. Zero selects 8, the paper's choice.
	ChunkLines int

	// Mem selects the tree's code path and carries the line size its
	// node layouts derive from; it must be one of the two models memsys
	// has. On a *memsys.Hierarchy the tree is the paper's: it charges
	// that hierarchy (through charge.go, the one place that does),
	// probe-per-key binary search inside a node, every prefetch a
	// modeled one, cycle-accurate. On a *memsys.Native it holds no model
	// and charges nothing, running at real wall-clock speed: the same
	// prefetches (where Prefetch asks for them) are issued as real CPU
	// instructions against the nodes' blocks, and the intra-node search
	// is a two-step branch-free count of the keys. Both return
	// the same answers from the same nodes, but a native tree keeps no
	// sibling links or jump-pointer array: its scans find the next leaf
	// in the bottom non-leaf node (scan.go, version.go). Nil selects a
	// fresh memsys.Default() simulated hierarchy.
	Mem memsys.Model

	// Space is the simulated address space nodes are allocated from.
	// Nil allocates a private space; pass a shared one to co-locate
	// the index with other structures (e.g. a heap file) in the same
	// cache.
	Space *memsys.AddressSpace

	// Cost is the instruction cost model. The zero value selects
	// DefaultCostModel.
	Cost CostModel

	// Trace receives operation-context notifications (operation kind,
	// node level and kind) for observability; pair it with a
	// memsys.Probe on the hierarchy to attribute misses and stalls to
	// tree levels. Nil disables tracing; tracing charges nothing to the
	// memory model either way.
	Trace Tracer

	// Ablation switches off individual design choices for the
	// ablation benchmarks; the zero value is the paper's design.
	Ablation Ablation
}

// Ablation disables individual pB+-Tree design choices so their
// contribution can be measured. Production use leaves it zero.
type Ablation struct {
	// PackChunks packs jump pointers to the front of each chunk
	// instead of interleaving empty slots evenly (section 3.2 argues
	// interleaving keeps insertions cheap).
	PackChunks bool

	// NoBufferPrefetch disables prefetching the return buffer during
	// range scans (footnote 5 includes the buffer in "range
	// prefetching a leaf node").
	NoBufferPrefetch bool

	// ExactHints eagerly rewrites the hint of every jump pointer
	// moved by an insertion, charging the extra leaf writes that the
	// hints-are-hints design avoids.
	ExactHints bool
}

// withDefaults resolves zero values and validates the configuration.
func (c Config) withDefaults() (Config, error) {
	if c.Width == 0 {
		c.Width = 1
	}
	if c.Width < 0 {
		return c, fmt.Errorf("core: width %d must be positive", c.Width)
	}
	if memsys.IsNil(c.Mem) {
		c.Mem = memsys.Default()
	}
	switch c.Mem.(type) {
	case *memsys.Hierarchy, *memsys.Native:
	default:
		return c, fmt.Errorf("core: Mem is a %T, want a *memsys.Hierarchy or a *memsys.Native", c.Mem)
	}
	if c.Cost == (CostModel{}) {
		c.Cost = DefaultCostModel()
	}
	if c.JumpArray != JumpNone && !c.Prefetch {
		return c, fmt.Errorf("core: jump-pointer arrays require Prefetch")
	}
	if _, native := c.Mem.(*memsys.Native); native && c.JumpArray != JumpNone {
		return c, fmt.Errorf("core: a native tree keeps no jump-pointer array (its scans prefetch through the bottom non-leaf nodes)")
	}
	mc := c.Mem.Config()
	if c.PrefetchDist == 0 {
		b := int(mc.Bandwidth())
		c.PrefetchDist = (b+c.Width-1)/c.Width + 1
	}
	if c.PrefetchDist < 1 {
		return c, fmt.Errorf("core: prefetch distance %d must be positive", c.PrefetchDist)
	}
	if c.ChunkLines == 0 {
		c.ChunkLines = 8
	}
	if c.ChunkLines < 1 {
		return c, fmt.Errorf("core: chunk size %d must be positive", c.ChunkLines)
	}
	if mc.LineSize < 4*fieldSize {
		return c, fmt.Errorf("core: line size %d too small for a node", mc.LineSize)
	}
	if _, native := c.Mem.(*memsys.Native); native && c.Width*mc.LineSize < 16*fieldSize {
		return c, fmt.Errorf("core: a native node is %d bytes, want at least %d (its search reads 8-key runs)", c.Width*mc.LineSize, 16*fieldSize)
	}
	return c, nil
}

// name returns the paper's name for this tree variant, e.g. "B+",
// "p8B+", "p8eB+".
func (c Config) name() string {
	if !c.Prefetch && c.Width == 1 {
		return "B+"
	}
	suffix := ""
	switch c.JumpArray {
	case JumpExternal:
		suffix = "e"
	case JumpInternal:
		suffix = "i"
	}
	return fmt.Sprintf("p%d%sB+", c.Width, suffix)
}
