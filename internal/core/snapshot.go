package core

// Snapshot hooks: the serving layer (internal/serve) publishes frozen
// versions of a tree (version.go) while a writer mutates their
// successor, and rebuilds a shard's tree when asked to compact it.
// AppendPairs, like WriteTo, charges nothing to the memory model — it
// is maintenance plumbing, not a modeled index operation; CloneFrozen
// charges its bulkload as usual (a no-op on the native model the
// serving layer uses).

// AppendPairs appends every <key, tupleID> pair of the tree to dst in
// key order and returns the extended slice. Pass a slice with spare
// capacity (e.g. make([]Pair, 0, t.Len())) to avoid reallocation.
func (t *Tree) AppendPairs(dst []Pair) []Pair {
	t.eachLeaf(t.root, func(n node) bool {
		tids := t.ptrs(n)
		for i, k := range t.keys(n)[:n.count()] {
			dst = append(dst, Pair{Key: Key(k), TID: TID(tids[i])})
		}
		return true
	})
	return dst
}

// CloneFrozen bulkloads a fresh tree with the same configuration and
// the current contents at the given fill factor: the one O(tree)
// rebuild, which restores the occupancy and the arena order that
// updates wear down. The clone charges to the same memory model but
// has its own arena and allocates from its own address space (unless
// the original configuration pinned a shared one).
func (t *Tree) CloneFrozen(fill float64) (*Tree, error) {
	nt, err := New(t.cfg)
	if err != nil {
		return nil, err
	}
	pairs := t.AppendPairs(make([]Pair, 0, t.count))
	if err := nt.Bulkload(pairs, fill); err != nil {
		return nil, err
	}
	return nt, nil
}
