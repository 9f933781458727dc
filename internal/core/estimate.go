package core

// EstimateRange estimates the number of pairs with keys in
// [start, end]. It implements the section 4.3 suggestion of
// "simultaneously searching for both the starting and ending leaves of
// the range and then seeing how far apart they are": both boundary
// descents are charged like ordinary searches, and the distance is
// derived from the fractional positions of the two root-to-leaf paths.
//
// For uniformly filled trees the estimate is accurate to within a
// small factor, which is all the short-range-scan heuristic needs (use
// plain scans below ~100 tupleIDs, prefetching scans above).
func (t *Tree) EstimateRange(start, end Key) int {
	if end < start || t.count == 0 {
		return 0
	}
	f1 := t.fracPos(start)
	f2 := t.fracPos(end)
	est := int((f2-f1)*float64(t.count)) + 1
	if est > t.count {
		est = t.count
	}
	return est
}

// fracPos descends to key's leaf and folds the child indices of the
// path into a position in [0, 1): 0 is before the first key, 1 after
// the last. The descent is recorded in a local buffer (not t.path) so
// estimation stays safe for concurrent native-mode readers.
func (t *Tree) fracPos(key Key) float64 {
	t.compute(t.cost.Op)
	var stack [24]pathEntry // deeper than any realistic tree
	leaf, ub, _, path := t.find(key, stack[:0], false)
	frac := 0.0
	if leaf.count() > 0 {
		frac = float64(ub) / float64(leaf.count())
	}
	for i := len(path) - 1; i >= 0; i-- {
		frac = (float64(path[i].idx) + frac) / float64(t.locate(path[i].id).count()+1)
	}
	return frac
}
