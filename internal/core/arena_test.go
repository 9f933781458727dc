package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"pbtree/internal/memsys"
)

// leafViews returns a view of every leaf in key order.
func leafViews(tr *Tree) []node {
	var ls []node
	for id := tr.leftmostLeaf(); id != 0; id = tr.next(ls[len(ls)-1]) {
		ls = append(ls, tr.view(id))
	}
	return ls
}

// heapDelta reports the live heap f leaves behind; what f builds must
// stay referenced by the caller.
func heapDelta(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return after.HeapAlloc - min(before.HeapAlloc, after.HeapAlloc)
}

// allocated reports the bytes f allocates, live or not.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestArenaEmptyTreeIsSmall: thousands of tests and every empty shard
// hold a one-leaf tree, so it must cost one block, not one slab.
func TestArenaEmptyTreeIsSmall(t *testing.T) {
	mem := memsys.DefaultNative()
	got := allocated(func() { MustNew(Config{Width: 8, Prefetch: true, Mem: mem}) })
	if got >= 8<<10 {
		t.Fatalf("an empty w=8 tree allocates %d bytes, want < 8 KiB", got)
	}
}

// wideEmptyStream is a PBT1 header for the widest node the format
// admits (a 256 KB block) and no pairs.
func wideEmptyStream(tb testing.TB) []byte {
	s := validStream(tb, 0, Config{Width: 1})
	s[4], s[5] = maxLoadWidth&0xff, maxLoadWidth>>8 // header.Width, little-endian
	return s
}

// TestLoadWidestEmptyTreeIsBounded: Load's allocations follow the
// data, never a header field — one block of the widest width, not a
// slab of them.
func TestLoadWidestEmptyTreeIsBounded(t *testing.T) {
	stream := wideEmptyStream(t)
	mem := memsys.DefaultNative()
	var tr *Tree
	got := allocated(func() {
		var err error
		if tr, err = Load(bytes.NewReader(stream), mem, 1.0); err != nil {
			t.Fatal(err)
		}
	})
	if tr.Config().Width != maxLoadWidth || tr.Len() != 0 {
		t.Fatalf("loaded width %d with %d pairs", tr.Config().Width, tr.Len())
	}
	if got > 1<<20 {
		t.Fatalf("loading an empty width-%d tree allocated %d bytes, want <= 1 MiB", maxLoadWidth, got)
	}
}

// TestArenaGrowth inserts through every slab regime — the doubling
// first slab, whole later slabs, a bulkload's exact reservation grown
// by later splits — and checks the accounting after each.
func TestArenaGrowth(t *testing.T) {
	// Width 64 makes a slab 256 blocks, so a few thousand keys cross
	// several slab boundaries.
	for _, mem := range []memsys.Model{memsys.Default(), memsys.DefaultNative()} {
		tr := MustNew(Config{Width: 64, Prefetch: true, Mem: mem})
		per := int(tr.slabMask) + 1
		for i := 0; i < 3*per*tr.LeafCapacity()/2; i++ {
			tr.Insert(Key(i*7919%1000003), TID(i))
			if got := len(tr.slabs[0]) / tr.blockWords; tr.ar.high <= nodeID(per) && got > 2*int(tr.ar.high) {
				t.Fatalf("first slab holds %d blocks for %d nodes", got, tr.ar.high)
			}
		}
		if len(tr.slabs) < 3 {
			t.Fatalf("%d slabs after %d nodes, want the tree to span several", len(tr.slabs), tr.ar.high)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Bulkload(sortedPairs(per*tr.LeafCapacity()+5), 1.0); err != nil {
			t.Fatal(err)
		}
		if got, want := uint64(len(tr.slabs[len(tr.slabs)-1])), uint64(int(tr.ar.high)%per*tr.blockWords); got != want {
			t.Fatalf("bulkload left a last slab of %d words for %d blocks, want %d", got, tr.ar.high, want)
		}
		for i := 0; i < per*tr.LeafCapacity(); i++ {
			tr.Insert(Key(8*i+3), TID(i))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestArenaRecyclesBlocks deletes a tree down to a lone leaf and
// refills it: freed blocks must be reused before the arena grows, a
// native tree's SpaceUsed must stay the carved byte count, and a
// simulated tree must hand every recycled block a fresh address. The
// simulated tree links its bottom nodes (p1iB+), the native one keeps
// no link at all.
func TestArenaRecyclesBlocks(t *testing.T) {
	for _, cfg := range []Config{
		{Width: 1, Prefetch: true, JumpArray: JumpInternal, Mem: memsys.Default()},
		{Width: 1, Prefetch: true, Mem: memsys.DefaultNative()},
	} {
		tr := MustNew(cfg)
		pairs := sortedPairs(2000)
		fill := func() {
			for _, p := range pairs {
				tr.Insert(p.Key, p.TID)
			}
		}
		fill()
		high, used := tr.ar.high, tr.SpaceUsed()
		for _, p := range pairs {
			tr.Delete(p.Key)
		}
		if tr.Height() != 1 || tr.Len() != 0 {
			t.Fatalf("height %d, len %d after deleting everything", tr.Height(), tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		fill()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if tr.ar.high != high {
			t.Errorf("native=%v: refill carved %d blocks, the first fill %d", tr.sim == nil, tr.ar.high, high)
		}
		if tr.sim == nil && tr.SpaceUsed() != used {
			t.Errorf("native SpaceUsed moved %d -> %d over a delete/refill cycle", used, tr.SpaceUsed())
		}
		if tr.sim != nil && tr.SpaceUsed() <= used {
			t.Errorf("simulated addresses were recycled: SpaceUsed %d -> %d", used, tr.SpaceUsed())
		}
	}
}

// TestCheckInvariantsBlockAccounting breaks the arena's bookkeeping
// in each way the accounting guards against.
func TestCheckInvariantsBlockAccounting(t *testing.T) {
	build := func() *Tree {
		tr := MustNew(Config{Width: 1, Prefetch: true, Mem: memsys.DefaultNative()})
		if err := tr.Bulkload(sortedPairs(200), 1.0); err != nil {
			t.Fatal(err)
		}
		for _, p := range sortedPairs(40) { // free a few blocks
			tr.Delete(p.Key)
		}
		if tr.ar.free == 0 {
			t.Fatal("deleting six leaves' worth of keys freed no block")
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	cases := []struct {
		name, want string
		corrupt    func(tr *Tree)
	}{
		{"leaked block", "neither reachable nor free", func(tr *Tree) { tr.newNode(leafFlag); tr.newNode(leafFlag) }},
		{"freed while reachable", "marked free", func(tr *Tree) { tr.freeNode(tr.leftmostLeaf()) }},
		{"child past the high-water mark", "outside the arena", func(tr *Tree) { tr.ptrs(tr.view(tr.root))[0] = uint32(tr.ar.high + 1) }},
		{"shared child", "reachable twice", func(tr *Tree) { p := tr.ptrs(tr.view(tr.root)); p[1] = p[0] }},
		{"wrong role bits", "leaf=", func(tr *Tree) { tr.locate(tr.leftmostLeaf()).w[0] &^= leafFlag }},
	}
	for _, c := range cases {
		tr := build()
		c.corrupt(tr)
		if err := tr.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestArenaAllocations pins what the arena buys: reads allocate
// nothing, and a bulkload allocates its slabs plus a handful of
// per-level slices — not three objects per node.
func TestArenaAllocations(t *testing.T) {
	base := MustNew(Config{Width: 8, Prefetch: true, Mem: memsys.DefaultNative()})
	pairs := sortedPairs(1_000_000)
	if err := base.Bulkload(pairs, 0.8); err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Tree{base, base.Fork()} {
		testReadAllocations(t, tr, pairs)
	}
	limit := float64(len(base.slabs) + 4*base.Height())
	if n := testing.AllocsPerRun(3, func() {
		if err := base.Bulkload(pairs, 0.8); err != nil {
			t.Fatal(err)
		}
	}); n > limit {
		t.Errorf("a 1M-pair bulkload allocates %v times, want <= %v (%d slabs, height %d)", n, limit, len(base.slabs), base.Height())
	}
}

// testReadAllocations is TestArenaAllocations' read half, run on a tree
// made by New and on a forked one.
func testReadAllocations(t *testing.T, tr *Tree, pairs []Pair) {
	if n := testing.AllocsPerRun(100, func() { tr.Search(pairs[777].Key) }); n != 0 {
		t.Errorf("Search allocates %v times", n)
	}
	keys, tids, found := make([]Key, 16), make([]TID, 16), make([]bool, 16)
	for i := range keys {
		keys[i] = pairs[i*60_000].Key
	}
	if n := testing.AllocsPerRun(100, func() { tr.SearchBatch(keys, tids, found) }); n != 0 {
		t.Errorf("SearchBatch(16) allocates %v times", n)
	}
	// A scan step copies into the caller's buffer and nothing else,
	// whether the run ends on a full buffer or on the end key.
	sc, rows := tr.NewScan(pairs[0].Key, MaxKey), make([]Pair, 100)
	if n := testing.AllocsPerRun(100, func() { sc.NextPairs(rows) }); n != 0 {
		t.Errorf("NextPairs(100) allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { tr.NewScan(pairs[5000].Key, MaxKey).NextPairs(rows) }); n > 1 {
		t.Errorf("NewScan allocates %v times, want the Scanner alone", n)
	}
	bounded := make([]*Scanner, 0, 101)
	for i := range cap(bounded) {
		bounded = append(bounded, tr.NewScan(pairs[i*1000].Key, pairs[i*1000+30].Key))
	}
	if n := testing.AllocsPerRun(100, func() {
		if got := bounded[0].NextPairs(rows); got != 31 {
			t.Fatalf("bounded scan returned %d rows, want 31", got)
		}
		bounded = bounded[1:]
	}); n != 0 {
		t.Errorf("NextPairs up to an end key allocates %v times", n)
	}
}

// TestArenaHeapMatchesSpaceUsed: on a native tree SpaceUsed is a real
// byte count — the live heap a bulkloaded tree holds is its blocks.
func TestArenaHeapMatchesSpaceUsed(t *testing.T) {
	pairs := sortedPairs(1_000_000)
	mem := memsys.DefaultNative()
	var tr *Tree
	heap := heapDelta(func() {
		tr = MustNew(Config{Width: 8, Prefetch: true, Mem: mem})
		if err := tr.Bulkload(pairs, 0.8); err != nil {
			t.Fatal(err)
		}
	})
	runtime.KeepAlive(pairs) // or the input's 8 MB would be collected inside the window
	used := tr.SpaceUsed()
	if diff := float64(heap)/float64(used) - 1; diff < -0.05 || diff > 0.05 {
		t.Fatalf("heap holds %d bytes for a tree reporting SpaceUsed %d (%+.1f%%), want within 5%%", heap, used, 100*diff)
	}
	t.Logf("1M keys at fill 0.8: heap %d B, SpaceUsed %d B, %.2f B/key", heap, used, float64(heap)/float64(len(pairs)))
}
