package core

// This file defines the operation-context side of the observability
// layer: an optional Tracer that learns which index operation is in
// progress and which node (tree level, node kind) the tree is working
// on. Together with a memsys.Probe on the hierarchy, a collector can
// attribute every cache miss and stall cycle to an operation, a tree
// level and a node kind (internal/obs does exactly that).
//
// Tracing is observation only: tracer notifications charge nothing to
// the memory model, so simulated cycle counts are identical with and
// without a tracer installed. With no tracer the per-call cost is one
// nil check.

// OpKind identifies the index operation in progress.
type OpKind uint8

const (
	// OpNone is the idle context (bulkload, invariant checks, ...).
	OpNone OpKind = iota
	// OpSearch is a point lookup.
	OpSearch
	// OpInsert is an insertion.
	OpInsert
	// OpDelete is a deletion.
	OpDelete
	// OpScan is a range scan (NewScan or Next).
	OpScan
)

// NumOps is the number of OpKind values, for dense per-op tables.
const NumOps = 5

// String names the operation the way attribution tables render it.
func (o OpKind) String() string {
	switch o {
	case OpSearch:
		return "search"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	default:
		return "none"
	}
}

// NodeKind classifies what a memory reference is working on.
type NodeKind uint8

const (
	// KindOther is traffic outside any classified structure.
	KindOther NodeKind = iota
	// KindNonLeaf is an upper non-leaf node.
	KindNonLeaf
	// KindBottom is a bottom non-leaf node (parent of leaves).
	KindBottom
	// KindLeaf is a leaf node (scan copy traffic to the return buffer
	// is attributed to the leaf being copied out).
	KindLeaf
	// KindChunk is an external jump-pointer array chunk.
	KindChunk
	// KindBuffer is a scan return buffer.
	KindBuffer
)

// String names the node kind the way attribution tables render it.
func (k NodeKind) String() string {
	switch k {
	case KindNonLeaf:
		return "nonleaf"
	case KindBottom:
		return "bottom"
	case KindLeaf:
		return "leaf"
	case KindChunk:
		return "chunk"
	case KindBuffer:
		return "buffer"
	default:
		return "other"
	}
}

// LevelNone tags traffic that belongs to no tree level (jump-pointer
// chunks, return buffers).
const LevelNone = -1

// Tracer receives operation-context notifications from a Tree. The
// context is "sticky": traffic between two Node calls belongs to the
// most recently announced node, so structural-update traffic (splits,
// redistributions) is attributed to the level that triggered it.
// Implementations must not touch the tree or its memory model.
type Tracer interface {
	// BeginOp announces the start of an index operation.
	BeginOp(op OpKind)
	// EndOp announces the end of the operation started last.
	EndOp(op OpKind)
	// Node announces that subsequent memory traffic works on a node at
	// the given tree level (0 = root, LevelNone = outside the tree) of
	// the given kind.
	Node(level int, kind NodeKind)
}

// Tracers fans notifications out to several tracers; nil entries are
// skipped, so callers can stack an optional tracer on top of their own.
type Tracers []Tracer

// BeginOp fans the operation start out to every non-nil tracer.
func (ts Tracers) BeginOp(op OpKind) {
	for _, t := range ts {
		if t != nil {
			t.BeginOp(op)
		}
	}
}

// EndOp fans the operation end out to every non-nil tracer.
func (ts Tracers) EndOp(op OpKind) {
	for _, t := range ts {
		if t != nil {
			t.EndOp(op)
		}
	}
}

// Node fans the node announcement out to every non-nil tracer.
func (ts Tracers) Node(level int, kind NodeKind) {
	for _, t := range ts {
		if t != nil {
			t.Node(level, kind)
		}
	}
}

// kindAt classifies a node a descent has not read yet: every leaf is
// at the same depth, so the level alone decides the kind.
func (t *Tree) kindAt(level int) NodeKind {
	switch t.height - 1 - level {
	case 0:
		return KindLeaf
	case 1:
		return KindBottom
	default:
		return KindNonLeaf
	}
}

// traceNode is the nil-guarded notification helper the operation code
// calls.
func (t *Tree) traceNode(level int, kind NodeKind) {
	if t.trc != nil {
		t.trc.Node(level, kind)
	}
}
