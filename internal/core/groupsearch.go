package core

// Group search: the serving-layer generalization of the paper's
// whole-node prefetch. A single search prefetches all lines of the
// node it is about to visit, overlapping the (Width-1) trailing line
// transfers; a *group* of M independent searches can go further and
// overlap the full miss latencies of M nodes by advancing all M
// searches level-by-level in lockstep. At each level the group first
// issues the prefetches for every member's current node back-to-back
// (the fills pipeline in the memory system, one completing every
// Tnext cycles), and only then performs the binary searches, each of
// which finds its node already resident or in flight. M sequential
// searches expose roughly M full miss latencies per level; the group
// exposes roughly one miss latency plus (M*Width-1) pipelined
// transfers.
//
// The simulated `mget` experiment (internal/exp) measures exactly this
// effect; internal/serve uses SearchBatch on the native model to serve
// batched MGET lookups off one tree snapshot.

// searchBatchStack is the largest group whose cursor SearchBatch keeps
// in a fixed stack array; larger groups allocate one slice.
const searchBatchStack = 64

// SearchBatch looks up keys[i] for every i, advancing all searches
// through the tree level-by-level as one software-pipelined group. It
// stores the results in tids[i] and found[i], which must both be at
// least len(keys) long (it panics otherwise, like a slice copy with
// mismatched bounds would).
//
// A batch charges the same instruction work as len(keys) sequential
// Search calls — only the exposure of the memory latency differs.
//
// Like Search, SearchBatch is read-only: on a frozen tree with a
// concurrency-safe memory model (*memsys.Native) and no tracer, any
// number of goroutines may call it concurrently.
func (t *Tree) SearchBatch(keys []Key, tids []TID, found []bool) {
	if len(tids) < len(keys) || len(found) < len(keys) {
		panic("core: SearchBatch result slices shorter than keys")
	}
	if len(keys) == 0 {
		return
	}
	if t.trc != nil {
		t.trc.BeginOp(OpSearch)
		defer t.trc.EndOp(OpSearch)
	}
	// The group cursor: nodes[i] is the node search i visits next.
	// All cursors sit at the same level throughout, since every leaf
	// of a B+-Tree is at the same depth.
	// Groups of up to searchBatchStack keys — every MGET group and
	// single-GET burst the store issues — keep the cursor on the stack.
	var stack [searchBatchStack]nodeID
	nodes := stack[:]
	if len(keys) > len(stack) {
		nodes = make([]nodeID, len(keys))
	}
	nodes = nodes[:len(keys)]
	for i := range nodes {
		nodes[i] = t.root
	}
	if t.sim == nil {
		t.searchBatchNative(keys, tids, found, nodes)
		return
	}
	for range nodes {
		t.compute(t.cost.Op)
	}
	for level := 0; ; level++ {
		// Prefetch phase: issue every member's node prefetch before
		// touching any of them, so the fills overlap. Duplicate nodes
		// (every member starts at the root) cost only the prefetch
		// issue cycles: the memory system coalesces in-flight lines.
		if t.cfg.Prefetch {
			for _, id := range nodes {
				t.traceNode(level, t.kindAt(level))
				t.pfNode(t.locate(id))
			}
		}
		if level == t.height-1 {
			break
		}
		// Search phase: binary-search each node and step its cursor
		// down to the chosen child.
		for i, id := range nodes {
			n := t.view(id)
			addr := t.addr(n)
			t.traceNode(level, n.kind)
			t.access(addr) // keynum
			t.compute(t.cost.Visit)
			idx, _ := t.searchKeys(n, addr, keys[i])
			t.access(t.lay(n).ptrAddr(addr, idx))
			nodes[i] = nodeID(t.ptrs(n)[idx])
		}
	}
	// Leaf phase.
	for i, id := range nodes {
		n := t.view(id)
		addr := t.addr(n)
		t.traceNode(t.height-1, KindLeaf)
		t.access(addr)
		t.compute(t.cost.Visit)
		ub, ok := t.searchKeys(n, addr, keys[i])
		found[i] = ok
		if !ok {
			tids[i] = 0
			continue
		}
		t.access(t.leafLay.ptrAddr(addr, ub-1))
		tids[i] = TID(t.ptrs(n)[ub-1])
	}
}

// searchBatchNative is the native descent kernel (search.go) for a
// group whose cursors stand at the root. A level asks for every
// member's node, once for a run of members on one, before it counts.
func (t *Tree) searchBatchNative(keys []Key, tids []TID, found []bool, nodes []nodeID) {
	for level := 1; ; level++ {
		for i, id := range nodes {
			if t.cfg.Prefetch && (i == 0 || id != nodes[i-1]) {
				pfBlock(t.locate(id).w)
			}
		}
		if level == t.height {
			break
		}
		for i, id := range nodes {
			w := t.locate(id).w
			nodes[i] = nodeID(w[len(w)/2+countLess(w, uint64(keys[i])+1)])
		}
	}
	for i, id := range nodes {
		w := t.locate(id).w
		lb, ok := leafFind(w, keys[i])
		found[i], tids[i] = ok, 0
		if ok {
			tids[i] = TID(w[len(w)/2+lb])
		}
	}
}
