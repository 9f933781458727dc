package core

import (
	"sort"
	"unsafe"
)

// MaxKey is the largest possible key, usable as an open scan bound.
const MaxKey = Key(^Key(0))

// Scanner is a resumable range scan. It is created positioned on the
// first qualifying pair; each Next call copies pairs into the caller's
// return buffer until the buffer fills, the end key is passed, or the
// index is exhausted — the segmented-scan protocol of section 3.
//
// Depending on the tree's configuration the scanner prefetches within
// the current leaf only (p^w), or uses the external or internal
// jump-pointer array to prefetch the leaf PrefetchDist nodes ahead
// (sections 3.3-3.5).
type Scanner struct {
	t    *Tree
	leaf nodeID // 0 once the chain is exhausted
	idx  int
	end  Key
	done bool

	// External jump-pointer array cursor: the position of the most
	// recently prefetched leaf.
	ck    *chunk
	ckIdx int

	// Internal jump-pointer array cursor (bn is 0 when the root is a
	// leaf).
	bn    nodeID
	bnIdx int

	// A native tree has no sibling links (version.go): its scanner
	// keeps the descent that found the first leaf, bottom non-leaf node
	// last, and takes each next leaf from that node's child words —
	// kids, with the separators between them in seps (nextLeaf). upBuf
	// backs the path of any tree up to nine levels high, so a scan
	// allocates nothing past the Scanner itself. pf is the last of kids
	// that has been asked for.
	up         []scanStep
	upBuf      [8]scanStep
	kids, seps []uint32
	pf         int

	cursorDone bool

	// noPrefetch disables all scan prefetching for this scanner (the
	// short-range fallback of section 4.3).
	noPrefetch bool

	// Simulated return buffer region, reused across Next calls.
	bufAddr  uint64
	bufBytes int
	// bufPF is the prefetch write offset within the current Next
	// call's buffer ("assume the leaf is full and prefetch the return
	// buffer area accordingly").
	bufPF int
	// Real base address and size of the caller's buffer for the
	// current Next/NextPairs call (native trees only; simulated
	// offsets map one-to-one onto it).
	bufReal      uintptr
	bufRealBytes int
}

// NewScan searches for the starting key and returns a scanner over
// [start, end]. The search cost is charged like any index search.
func (t *Tree) NewScan(start, end Key) *Scanner {
	return t.newScan(start, end, false)
}

// NewScanNoPrefetch returns a scanner that performs no scan
// prefetching at all. Section 4.3 observes that for ranges below
// roughly 100 tupleIDs the prefetch startup cost is not repaid; a
// query optimizer (see EstimateRange) can pick this scanner for short
// ranges.
func (t *Tree) NewScanNoPrefetch(start, end Key) *Scanner {
	return t.newScan(start, end, true)
}

// newScan opens a scanner on t alone: the group open of one member.
func (t *Tree) newScan(start, end Key, noPrefetch bool) *Scanner {
	ss := make([]Scanner, 1)
	openScans(ss, []*Tree{t}, start, end, noPrefetch)
	return &ss[0]
}

// OpenScans opens ss[i] over [start, end] on ts[i], in place: one
// range over several trees — the shards of a store — searched as one
// group, SearchBatch's level-lockstep step. At each level every
// member's node is asked for before any of them is searched, so the
// descents expose about one miss a level between them instead of one
// each. Each member records its own path and stops at its own leaf
// level, so the trees may differ in height. An open Scanner must not be
// copied (a native tree's scanner points into itself); opening it again
// reuses it. NewScan is OpenScans of one tree, and charges a simulated
// tree exactly what a lone descent does.
func OpenScans(ss []Scanner, ts []*Tree, start, end Key) {
	openScans(ss, ts, start, end, false)
}

func openScans(ss []Scanner, ts []*Tree, start, end Key, noPrefetch bool) {
	ss = ss[:len(ts)]
	for i, t := range ts {
		if t.trc != nil {
			t.trc.BeginOp(OpScan)
		}
		t.compute(t.cost.Op)
		// leaf is the node the descent is at until it reaches one.
		ss[i] = Scanner{t: t, leaf: t.root, end: end, noPrefetch: noPrefetch}
		ss[i].up = ss[i].upBuf[:0]
	}
	for level, more := 0, true; more; level++ {
		for i := range ss {
			if t := ss[i].t; level < t.height {
				t.traceNode(level, t.kindAt(level))
				if t.cfg.Prefetch {
					t.pfNode(t.locate(ss[i].leaf))
				}
			}
		}
		more = false
		for i := range ss {
			s := &ss[i]
			t := s.t
			switch {
			case level >= t.height:
				continue
			case t.sim == nil:
				// The native descent kernel (search.go). The path goes
				// into the scanner, never t.path, so that concurrent
				// native scans write no shared tree state.
				n := t.locate(s.leaf)
				if level == t.height-1 {
					s.position(node{n.w, n.id, KindLeaf}, 0, countLess(n.w, uint64(start)))
					continue
				}
				idx := countLess(n.w, uint64(start)+1)
				s.up = append(s.up, scanStep{n.id, int32(idx)})
				s.leaf, more = nodeID(n.w[len(n.w)/2+idx]), true
				continue
			}
			n := t.view(s.leaf)
			addr := t.addr(n)
			t.access(addr) // keynum
			t.compute(t.cost.Visit)
			ub, found := t.searchKeys(n, addr, start)
			if level == t.height-1 {
				if found {
					ub--
				}
				s.position(n, addr, ub)
				continue
			}
			t.access(t.lay(n).ptrAddr(addr, ub))
			if t.cfg.JumpArray == JumpInternal {
				s.bn, s.bnIdx = n.id, ub
			}
			s.leaf = nodeID(t.ptrs(n)[ub])
			more = true
		}
	}
	for _, t := range ts {
		if t.trc != nil {
			t.trc.EndOp(OpScan)
		}
	}
}

// position ends a scanner's descent at leaf, whose simulated address
// is addr, on its pair idx — the first at or after the start key — or
// done, and then the jump-pointer array's startup prefetches.
func (s *Scanner) position(leaf node, addr uint64, idx int) {
	t := s.t
	if len(s.up) > 0 {
		s.enter(t.view(s.up[len(s.up)-1].id))
	}
	s.idx = idx

	// The starting position may be one past the last key of this leaf.
	if s.idx >= leaf.count() {
		t.access(t.leafLay.nextAddr(addr))
		s.leaf, s.idx = s.nextLeaf(leaf, 0), 0
	}
	if s.leaf == 0 {
		s.done = true
		return
	}
	if s.noPrefetch {
		return
	}
	switch t.cfg.JumpArray {
	case JumpExternal:
		s.startupExternal()
	case JumpInternal:
		s.startupInternal()
	}
	if len(s.up) > 0 {
		// A link-free scan's startup (section 3.5 with k = 1): the next
		// leaf is asked for now, so that in a group open its miss
		// overlaps the other members' as their descents did.
		s.pfAhead(int(s.up[len(s.up)-1].idx), 1)
	}
}

// Done reports whether the scan has no row left, from where it stands
// and without charging anything. It is exact except on an empty leaf,
// where it says false and the next call returns nothing.
func (s *Scanner) Done() bool {
	if s.done {
		return true
	}
	leaf := s.t.view(s.leaf)
	return s.idx < leaf.count() && Key(s.t.keys(leaf)[s.idx]) > s.end
}

// startupExternal performs the startup phase of section 3.3: locate
// the starting leaf in the jump-pointer array, prefetch the current
// and next chunks, and range-prefetch the first k leaves.
func (s *Scanner) startupExternal() {
	t := s.t
	s.ck, s.ckIdx = t.jpLocate(t.view(s.leaf))
	t.traceNode(LevelNone, KindChunk)
	t.pfChunk(s.ck)
	if s.ck.next != nil {
		t.pfChunk(s.ck.next)
	}
	// The current leaf is already cached from the search; prefetch the
	// k-1 following leaves, leaving the cursor on the last one.
	for i := 1; i < t.cfg.PrefetchDist; i++ {
		s.prefetchNextExternal()
	}
}

// prefetchNextExternal advances the external cursor one occupied slot
// and range-prefetches that leaf.
func (s *Scanner) prefetchNextExternal() {
	if s.cursorDone {
		return
	}
	t := s.t
	t.traceNode(LevelNone, KindChunk)
	i := s.ckIdx + 1
	ck := s.ck
	for {
		if i >= len(ck.slots) {
			if ck.next == nil {
				s.cursorDone = true
				return
			}
			ck = ck.next
			i = 0
			// Entering a new chunk: prefetch the chunk after it so it
			// is resident before we reach it (section 3.3).
			if ck.next != nil {
				t.pfChunk(ck.next)
			}
			continue
		}
		t.access(ck.slotAddr(i))
		if ck.slots[i] != 0 {
			break
		}
		i++
	}
	s.ck, s.ckIdx = ck, i
	s.rangePrefetchLeaf(ck.slots[i])
}

// startupInternal initializes the internal jump-pointer array cursor
// from the recorded descent and prefetches the first k leaves. The
// starting position within the bottom non-leaf node was determined by
// the search (newScan recorded it in s.bn/s.bnIdx), so no lookup is
// needed (section 3.5).
func (s *Scanner) startupInternal() {
	t := s.t
	if s.bn == 0 {
		return // the root is a leaf: nothing to prefetch across
	}
	t.traceNode(t.height-2, KindBottom)
	if next := t.next(t.view(s.bn)); next != 0 {
		t.pfNode(t.locate(next))
	}
	for i := 1; i < t.cfg.PrefetchDist; i++ {
		s.prefetchNextInternal()
	}
}

// prefetchNextInternal advances the internal cursor one child and
// range-prefetches that leaf.
func (s *Scanner) prefetchNextInternal() {
	if s.cursorDone || s.bn == 0 {
		return
	}
	t := s.t
	t.traceNode(t.height-2, KindBottom)
	i := s.bnIdx + 1
	bn := t.view(s.bn)
	if i > bn.count() {
		if t.next(bn) == 0 {
			s.cursorDone = true
			return
		}
		bn = t.view(t.next(bn))
		i = 0
		if t.next(bn) != 0 {
			t.pfNode(t.locate(t.next(bn)))
		}
	}
	s.bn, s.bnIdx = bn.id, i
	t.access(t.bottomLay.ptrAddr(t.addr(bn), i))
	s.rangePrefetchLeaf(nodeID(t.ptrs(bn)[i]))
}

// rangePrefetchLeaf prefetches all lines of a leaf plus the return
// buffer area it will be copied into.
func (s *Scanner) rangePrefetchLeaf(leaf nodeID) {
	t := s.t
	t.traceNode(t.height-1, KindLeaf)
	t.pfNode(t.locate(leaf))
	if s.bufBytes > 0 && !t.cfg.Ablation.NoBufferPrefetch {
		n := t.leafLay.maxKeys * fieldSize
		if s.bufPF+n > s.bufBytes {
			n = s.bufBytes - s.bufPF
		}
		if n > 0 {
			t.traceNode(LevelNone, KindBuffer)
			s.pfBuf(s.bufPF, n)
			s.bufPF += n
		}
	}
}

// Next copies qualifying tupleIDs into buf and returns how many were
// copied. A return of 0 means the scan is complete. A full buffer
// pauses the scan; the next call resumes where it left off.
func (s *Scanner) Next(buf []TID) int {
	if s.done || len(buf) == 0 {
		return 0
	}
	if trc := s.t.trc; trc != nil {
		trc.BeginOp(OpScan)
		defer trc.EndOp(OpScan)
	}
	s.openBuffer(unsafe.Pointer(unsafe.SliceData(buf)), len(buf), tidBytes)
	written := 0
	for more := true; more; {
		var tids []uint32
		_, tids, more = s.leafRun(written, len(buf)-written, tidBytes)
		dst := buf[written:][:len(tids)]
		for i := range dst {
			dst[i] = TID(tids[i])
		}
		written += len(tids)
	}
	return written
}

// NextPairs is Next, but copies <key, tupleID> pairs instead of bare
// tupleIDs — the serving layer merges per-shard scans by key and needs
// both halves. The memory charges mirror Next's: key read, tupleID
// read, one return-buffer write per pair (a Pair is one buffer slot;
// the simulated buffer region sizes itself in pairs accordingly).
func (s *Scanner) NextPairs(buf []Pair) int {
	if s.done || len(buf) == 0 {
		return 0
	}
	if trc := s.t.trc; trc != nil {
		trc.BeginOp(OpScan)
		defer trc.EndOp(OpScan)
	}
	s.openBuffer(unsafe.Pointer(unsafe.SliceData(buf)), len(buf), pairBytes)
	written := 0
	for more := true; more; {
		var keys, tids []uint32
		keys, tids, more = s.leafRun(written, len(buf)-written, pairBytes)
		dst := buf[written:][:len(tids)]
		keys = keys[:len(dst)]
		for i := range dst {
			dst[i] = Pair{Key: Key(keys[i]), TID: TID(tids[i])}
		}
		written += len(tids)
	}
	return written
}

// Size of one return-buffer slot, in both memories: the simulated
// buffer region is packed fields exactly like the caller's real one,
// so offsets into either map one-to-one onto the other.
const (
	tidBytes  = int(unsafe.Sizeof(TID(0)))
	pairBytes = int(unsafe.Sizeof(Pair{}))
)

// openBuffer starts a Next/NextPairs call on a return buffer of the
// given number of slot-byte rows at real address buf: a simulated
// scanner (re)uses its simulated buffer region, a native one notes
// where the real buffer is, and both prime the buffer prefetch.
func (s *Scanner) openBuffer(buf unsafe.Pointer, rows, slot int) {
	t, size := s.t, rows*slot
	if s.bufBytes < size {
		s.bufBytes = size
		if t.sim != nil {
			s.bufAddr = t.space.Alloc(size)
		}
	}
	if t.sim == nil {
		s.bufReal, s.bufRealBytes = uintptr(buf), size
	}
	// Prime the buffer prefetch k leaves ahead of the writer, mirroring
	// the startup range prefetch of the leaves themselves ("we will
	// assume that the leaf is full and prefetch the return buffer area
	// accordingly"). Without a jump-pointer array the buffer is still
	// prefetched, but only one leaf ahead.
	s.bufPF = 0
	if t.cfg.Prefetch && !s.noPrefetch && !t.cfg.Ablation.NoBufferPrefetch {
		leaves := 1
		if t.cfg.JumpArray != JumpNone {
			leaves = t.cfg.PrefetchDist
		}
		ahead := min(leaves*t.leafLay.maxKeys*fieldSize, size)
		t.traceNode(LevelNone, KindBuffer)
		s.pfBuf(0, ahead)
		s.bufPF = ahead
	}
	if len(s.up) > 0 {
		// A link-free scan asks for the next leaf now if this call
		// will get to it.
		s.pfAhead(int(s.up[len(s.up)-1].idx), rows-(t.view(s.leaf).count()-s.idx))
	}
	// The copy loop interleaves leaf reads and return-buffer writes;
	// all of it is attributed to the leaf level.
	t.traceNode(t.height-1, KindLeaf)
}

// leafRun is one step of the copy loop, shared by Next and NextPairs:
// it works out how many of the current leaf's remaining rows fit both
// the end key and the room left in the buffer, moves the scan past
// them — on to the next leaf if that used the leaf up, even when the
// buffer is full, so a scan that ends on a leaf's last key is seen to
// end — and returns their key and tupleID words for the caller to
// copy, in a loop that calls nothing. more is false once the call is
// over: the end key passed, the buffer full, or the chain exhausted.
//
// Only a simulated tree is charged, after the fact and all at once,
// with the sequence the paper's count-driven copy loop issues row by
// row: key line, tupleID line, buffer slot, Copy; then the key line of
// the row the run stopped at, whose boundary check ends it. written is
// the number of rows already in the buffer, slot their size.
func (s *Scanner) leafRun(written, room, slot int) (keys, tids []uint32, more bool) {
	t := s.t
	leaf := t.view(s.leaf)
	from, cnt := s.idx, leaf.count()
	keys, tids = t.keys(leaf)[from:cnt], t.ptrs(leaf)[from:cnt]
	n := min(len(keys), room)
	if n > 0 && Key(keys[n-1]) > s.end {
		n = sort.Search(n-1, func(i int) bool { return Key(keys[i]) > s.end })
	}
	s.idx = from + n
	if t.sim != nil {
		lay, addr := &t.leafLay, t.addr(leaf)
		for i := from; i < s.idx; i++ {
			t.access(lay.keyAddr(addr, i))
			t.access(lay.ptrAddr(addr, i))
			t.access(s.bufAddr + uint64((written+i-from)*slot))
			t.compute(t.cost.Copy)
		}
		if s.idx < cnt {
			t.access(lay.keyAddr(addr, s.idx))
		}
	}
	if s.idx < cnt {
		// Stopped inside the leaf: at a key past the end, or on a full
		// buffer.
		s.done = Key(keys[n]) > s.end
		return keys[:n], tids[:n], false
	}
	s.advanceLeaf(leaf, (written+n)*slot, room-n)
	return keys, tids, !s.done
}

// advanceLeaf steps a scan off the end of leaf to the next one,
// keeping the prefetch cursor k nodes ahead, and marks the scan done
// when the chain ends. bufOff is the write offset in the return buffer,
// in bytes, room the rows it still has room for.
func (s *Scanner) advanceLeaf(leaf node, bufOff, room int) {
	t := s.t
	t.access(t.leafLay.nextAddr(t.addr(leaf)))
	if !s.noPrefetch {
		switch t.cfg.JumpArray {
		case JumpExternal:
			s.prefetchNextExternal()
		case JumpInternal:
			s.prefetchNextInternal()
		}
	}
	s.leaf, s.idx = s.nextLeaf(leaf, room), 0
	if s.leaf == 0 {
		s.done = true
		return
	}
	s.visitLeafForScan(s.leaf, bufOff)
}

// scanStep is one level of a link-free scan's path: the child of node
// id the scan is under.
type scanStep struct {
	id  nodeID
	idx int32
}

// nextLeaf returns the leaf after leaf in key order, 0 at the end: its
// sibling link in a simulated tree, in a native one the next child
// word of the bottom non-leaf node the scan came through. room is the
// rows the current call still has room for, which bounds what is
// prefetched past the new leaf.
func (s *Scanner) nextLeaf(leaf node, room int) nodeID {
	t := s.t
	if t.sim != nil {
		return t.next(leaf)
	}
	if len(s.up) == 0 {
		return 0 // the root is a leaf
	}
	e := &s.up[len(s.up)-1]
	if e.idx++; int(e.idx) == len(s.kids) && !s.nextBottom() {
		return 0
	}
	// The new leaf itself, unless it was asked for a leaf ago, and the
	// one after it if the call will get that far: the new leaf is
	// taken to be full, as the paper takes it — its header may still be
	// on its way.
	cur := int(e.idx)
	if s.pf < cur {
		s.pfAhead(cur-1, 1)
	}
	s.pfAhead(cur, room-t.leafLay.maxKeys)
	return nodeID(s.kids[cur])
}

// pfAhead keeps a link-free scan's prefetches one leaf ahead of its
// copy loop. The bottom non-leaf node's child words are the paper's
// internal jump-pointer array (section 3.5): the one after cur names
// the next leaf, which is asked for now, so that its miss overlaps the
// copy of the current one — unless it has been asked for, the call
// wants nothing of it (beyond is the rows it needs from leaves past
// child cur), it begins past the end key (the separators say where:
// section 4.3's rule for short ranges), or it hangs off the next
// bottom node, a climb away — one exposed miss in about fifty leaves.
// One leaf ahead is as far as it pays: a w=8 leaf is eight lines and a
// core keeps about ten misses in flight, so a second leaf's lines only
// queue behind the first's (BenchmarkNativeScan2000/churned is no
// faster three leaves ahead, and a fresh tree, which the hardware's
// streamer already feeds, is slower).
func (s *Scanner) pfAhead(cur, beyond int) {
	t := s.t
	if beyond <= 0 || cur+1 >= len(s.kids) || s.pf > cur || !t.cfg.Prefetch || s.noPrefetch {
		return
	}
	if cur >= 0 && Key(s.seps[cur]) > s.end {
		return
	}
	s.pf = cur + 1
	t.pfNode(t.locate(nodeID(s.kids[s.pf])))
}

// nextBottom moves a link-free scan whose bottom non-leaf node is used
// up — about every fiftieth leaf of a w=8 tree — to the next one: up
// the recorded path to the first node with a child to the right, and
// down that child's leftmost edge, none of whose leaves has been asked
// for. It reports false at the end of the tree.
func (s *Scanner) nextBottom() bool {
	t := s.t
	l := len(s.up) - 2
	for ; l >= 0 && int(s.up[l].idx) == t.view(s.up[l].id).count(); l-- {
	}
	if l < 0 {
		return false
	}
	s.up[l].idx++
	n := t.view(s.up[l].id)
	for l++; l < len(s.up); l++ {
		n = t.view(nodeID(t.ptrs(n)[s.up[l-1].idx]))
		s.up[l] = scanStep{id: n.id}
	}
	s.enter(n)
	s.pf = -1
	return true
}

// enter makes bn the bottom non-leaf node a link-free scan reads its
// leaves off.
func (s *Scanner) enter(bn node) {
	s.kids, s.seps = s.t.ptrs(bn)[:bn.count()+1], s.t.keys(bn)[:bn.count()]
}

// visitLeafForScan models arriving at a leaf mid-scan: with
// prefetching but no jump-pointer array, all of the leaf's lines plus
// its return-buffer area are prefetched here (they could not be
// prefetched earlier); with a jump-pointer array they were prefetched
// k nodes ago and this is free beyond the keynum read. off is the
// write offset in the return buffer, in bytes.
func (s *Scanner) visitLeafForScan(id nodeID, off int) {
	t := s.t
	n := t.locate(id)
	t.traceNode(t.height-1, KindLeaf)
	if t.cfg.Prefetch && !s.noPrefetch && t.cfg.JumpArray == JumpNone {
		if t.sim != nil { // a native tree's nextLeaf asked already
			t.pfNode(n)
		}
		if s.bufBytes > 0 && !t.cfg.Ablation.NoBufferPrefetch {
			sz := t.leafLay.maxKeys * fieldSize
			if off+sz > s.bufBytes {
				sz = s.bufBytes - off
			}
			if sz > 0 {
				t.traceNode(LevelNone, KindBuffer)
				s.pfBuf(off, sz)
				t.traceNode(t.height-1, KindLeaf)
			}
		}
	}
	t.access(t.addr(n))
	t.compute(t.cost.Visit)
}

// Scan is a convenience wrapper: it scans from start until either
// count pairs have been returned or end is passed, using a single
// return buffer of size count, and reports the number of pairs
// returned. It models the paper's "range scan request for m tupleIDs".
func (t *Tree) Scan(start Key, count int) int {
	s := t.NewScan(start, MaxKey)
	buf := make([]TID, count)
	return s.Next(buf)
}
