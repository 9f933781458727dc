package core

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"pbtree/internal/memsys"
)

// keptVersion is a frozen version beside a copy of what it must hold.
type keptVersion struct {
	tr    *Tree
	model map[Key]TID
}

// versionOracle drives one lineage the way a serving shard does —
// write the newest version, freeze it, fork its successor, release old
// versions — and holds every live version to its own copy of the
// model map and the arena to its accounting.
type versionOracle struct {
	tb    testing.TB
	head  *Tree // the writable version
	model map[Key]TID
	kept  []keptVersion // frozen, oldest first
}

func newVersionOracle(tb testing.TB, cfg Config, pairs []Pair) *versionOracle {
	cfg.Mem, cfg.JumpArray = memsys.DefaultNative(), JumpNone
	base := MustNew(cfg)
	if err := base.Bulkload(pairs, 0.8); err != nil {
		tb.Fatal(err)
	}
	o := &versionOracle{tb: tb, head: base.Fork(), model: map[Key]TID{}}
	o.head.Release(base)
	for _, p := range pairs {
		o.model[p.Key] = p.TID
	}
	return o
}

// publish freezes the writable version with a copy of the model and
// forks its successor.
func (o *versionOracle) publish() {
	m := make(map[Key]TID, len(o.model))
	for k, v := range o.model {
		m[k] = v
	}
	o.kept = append(o.kept, keptVersion{o.head, m})
	o.head = o.head.Fork()
}

// reach marks the blocks reachable from v, checking its structure.
func (o *versionOracle) reach(v *Tree) []bool {
	seen := make([]bool, v.ar.high+1)
	if err := v.checkVersion(seen); err != nil {
		o.tb.Fatalf("version %d: %v", v.epoch, err)
	}
	return seen
}

// contiguous reports whether the live versions are every version from
// the oldest one up: none in between was released early.
func (o *versionOracle) contiguous() bool {
	a := o.head.ar
	return len(a.live) == 0 || a.live[0]+uint64(len(a.live)) == a.epoch
}

// release drops kept version i. While no version has been released
// out of order, dropping the oldest must put exactly the blocks no
// other live version reaches on the free list; verify asks for that
// check, which walks every live version.
func (o *versionOracle) release(i int, verify bool) {
	old := o.kept[i].tr
	o.kept = slices.Delete(o.kept, i, i+1)
	if !verify {
		o.head.Release(old)
		return
	}
	exact := i == 0 && o.contiguous()
	var unshared []bool
	if exact {
		unshared = o.reach(old)
		for _, v := range append(o.trees(), o.head) {
			for id, ok := range o.reach(v) {
				unshared[id] = unshared[id] && !ok
			}
		}
	}
	before := o.freeBlocks()
	o.head.Release(old)
	after := o.freeBlocks()
	for id, was := range before {
		if was && !after[id] {
			o.tb.Fatalf("releasing version %d took block %d off the free list", old.epoch, id)
		}
		if exact && !was && after[id] != unshared[id] {
			o.tb.Fatalf("releasing version %d: block %d freed=%v, unshared=%v", old.epoch, id, after[id], unshared[id])
		}
	}
}

func (o *versionOracle) trees() []*Tree {
	ts := make([]*Tree, len(o.kept))
	for i, k := range o.kept {
		ts[i] = k.tr
	}
	return ts
}

// freeBlocks marks the blocks on the free list.
func (o *versionOracle) freeBlocks() []bool {
	free := make([]bool, o.head.ar.high+1)
	if err := o.head.checkFree(free); err != nil {
		o.tb.Fatal(err)
	}
	return free
}

// check holds every live version to its model — Search, a full scan,
// EstimateRange, the structural invariants — and closes the block
// accounting: reachable from any live version, free and retired
// together are every carved block, free blocks are reachable from
// nowhere, a retired block is reachable from a frozen version if the
// live set has no gaps (else it may wait for a gap to close), never
// from the writable one, and is queued once.
func (o *versionOracle) check(probe Key) {
	tb, gaps := o.tb, !o.contiguous()
	a := o.head.ar
	var frozen, writable []bool // reachable from a frozen version, from the writable one
	for _, k := range append(o.kept, keptVersion{o.head, o.model}) {
		tr := k.tr
		writable = o.reach(tr)
		if tr != o.head {
			frozen = slices.Grow(frozen, len(writable))[:len(writable)]
			for id, ok := range writable {
				frozen[id] = frozen[id] || ok
			}
		}
		if tr.Len() != len(k.model) {
			tb.Fatalf("version %d holds %d pairs, its model %d", tr.epoch, tr.Len(), len(k.model))
		}
		want, had := k.model[probe]
		if got, ok := tr.Search(probe); ok != had || got != want {
			tb.Fatalf("version %d: Search(%d) = %d,%v, want %d,%v", tr.epoch, probe, got, ok, want, had)
		}
		var rows []Pair
		sc, buf := tr.NewScan(0, MaxKey), make([]Pair, 7)
		for n := sc.NextPairs(buf); n > 0; n = sc.NextPairs(buf) {
			rows = append(rows, buf[:n]...)
		}
		if all := tr.AppendPairs(nil); !slices.Equal(rows, all) || len(rows) != len(k.model) {
			tb.Fatalf("version %d: a full scan returns %d rows, AppendPairs %d, the model holds %d", tr.epoch, len(rows), len(all), len(k.model))
		}
		for i, p := range rows {
			if k.model[p.Key] != p.TID || i > 0 && rows[i-1].Key >= p.Key {
				tb.Fatalf("version %d: scan row %d is %+v after %+v, model tid %d", tr.epoch, i, p, rows[max(i, 1)-1], k.model[p.Key])
			}
		}
		if est := tr.EstimateRange(0, MaxKey); est > len(rows) || 2*est < len(rows) {
			tb.Fatalf("version %d: EstimateRange over everything = %d of %d", tr.epoch, est, len(rows))
		}
	}
	if err := o.head.CheckInvariants(); err != nil {
		tb.Fatalf("version %d: %v", o.head.epoch, err)
	}
	frozen = slices.Grow(frozen, len(writable))[:len(writable)]

	retired := make([]bool, a.high+1)
	queued := 0
	for _, m := range a.marks {
		queued += m.n
	}
	if queued != len(a.retired) {
		tb.Fatalf("retire marks count %d blocks, the queue holds %d", queued, len(a.retired))
	}
	for _, id := range a.retired {
		switch {
		case retired[id]:
			tb.Fatalf("block %d retired twice", id)
		case writable[id]:
			tb.Fatalf("retired block %d is reachable from the writable version", id)
		case !gaps && !frozen[id]:
			tb.Fatalf("retired block %d is reachable from no live version", id)
		}
		retired[id] = true
	}
	free := o.freeBlocks()
	for id := nodeID(1); id <= a.high; id++ {
		reachable := frozen[id] || writable[id]
		switch {
		case free[id] && (reachable || retired[id]):
			tb.Fatalf("free block %d is also reachable=%v retired=%v", id, reachable, retired[id])
		case !free[id] && !reachable && !retired[id]:
			tb.Fatalf("block %d is neither reachable from a live version, nor retired, nor free", id)
		case uint32(o.head.epoch) == a.born[id] && frozen[id]:
			tb.Fatalf("block %d, made by the writable version, is reachable from a frozen one", id)
		}
	}
}

func (o *versionOracle) insert(k Key, tid TID) {
	_, had := o.model[k]
	if o.head.Insert(k, tid) == had {
		o.tb.Fatalf("Insert(%d) on version %d reported new=%v, model had=%v", k, o.head.epoch, !had, had)
	}
	o.model[k] = tid
}

func (o *versionOracle) delete(k Key) {
	_, had := o.model[k]
	if o.head.Delete(k) != had {
		o.tb.Fatalf("Delete(%d) on version %d = %v, model had=%v", k, o.head.epoch, !had, had)
	}
	delete(o.model, k)
}

// TestVersionsAgainstModel churns a lineage through splits, merges,
// root growth and collapse with a window of frozen versions behind the
// writer, released in order and — every so often — out of order, which
// is what a cursor pinned across many publications does.
func TestVersionsAgainstModel(t *testing.T) {
	for _, width := range []int{1, 2, 8} {
		r := rand.New(rand.NewSource(int64(width)))
		o := newVersionOracle(t, Config{Width: width, Prefetch: true}, sortedPairs(300))
		for step := 0; step < 5000; step++ {
			// Grow, churn, delete down to nothing, grow again.
			k := Key(r.Intn(4000))
			switch phase := step / 1000; {
			case (phase == 2 || phase == 3) && len(o.model) > 0:
				rows := o.head.AppendPairs(nil)
				k = rows[r.Intn(len(rows))].Key
				o.delete(k)
			case phase == 1 && r.Intn(2) == 0, r.Intn(8) == 0:
				o.delete(k)
			default:
				o.insert(k, TID(step))
			}
			if r.Intn(4) == 0 {
				o.publish()
			}
			switch {
			case len(o.kept) > 6:
				o.release(0, true)
			case len(o.kept) > 3 && r.Intn(16) == 0:
				o.release(1+r.Intn(len(o.kept)-1), true)
			}
			if step%7 == 0 {
				o.check(k)
			}
		}
		for len(o.kept) > 0 {
			o.release(0, true)
		}
		o.check(0)
		if n := o.head.Retired(); n != 0 {
			t.Fatalf("width %d: %d blocks still retired with every old version released", width, n)
		}
	}
}

// TestVersionPathCopyIsBounded: what one write costs a forked tree is
// its path, whatever the tree's size — the O(batch) publication — and
// the arena stops growing once released versions feed the free list.
func TestVersionPathCopyIsBounded(t *testing.T) {
	tr := MustNew(Config{Width: 8, Prefetch: true, Mem: memsys.DefaultNative()})
	if err := tr.Bulkload(sortedPairs(200_000), 0.8); err != nil {
		t.Fatal(err)
	}
	head := tr.Fork()
	head.Release(tr)
	r := rand.New(rand.NewSource(1))
	var grown int
	for i := 0; i < 2000; i++ {
		prev, blocks, splits := head, head.Blocks(), head.stats.LeafSplits+head.stats.NonLeafSplits
		head = head.Fork()
		head.Insert(Key(8*r.Intn(200_000)+1+r.Intn(7)), 1)
		head.Release(prev)
		splits = head.stats.LeafSplits + head.stats.NonLeafSplits - splits
		if c := head.Copied(); c != head.Height() {
			t.Fatalf("write %d copied %d blocks in a tree of height %d", i, c, head.Height())
		}
		if i > 0 && head.Blocks()-blocks > int(splits) {
			t.Fatalf("write %d carved %d blocks for %d splits with the last version's path free", i, head.Blocks()-blocks, splits)
		}
		grown += head.Blocks() - blocks
	}
	if err := head.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("2000 single-insert versions carved %d blocks", grown)
}

// TestVersionReadersBesideWriter is the race detector's view of the
// contract: readers of frozen versions — Search, SearchBatch, scans,
// EstimateRange, AppendPairs — run while the successor is written,
// the arena grows (a doubling last slab included: the tree starts
// empty) and released versions' blocks are reused.
func TestVersionReadersBesideWriter(t *testing.T) {
	base := MustNew(Config{Width: 2, Prefetch: true, Mem: memsys.DefaultNative()})
	head := base.Fork()
	head.Release(base)
	type pub struct {
		tr *Tree
		n  int // keys 1..n hold tid n
	}
	pubs := make(chan pub, 4)
	var wg sync.WaitGroup
	done := make(chan *Tree, 64)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range pubs {
				rows := p.tr.AppendPairs(nil)
				if len(rows) != p.n || p.tr.Len() != p.n {
					t.Errorf("version of %d keys holds %d (Len %d)", p.n, len(rows), p.tr.Len())
				}
				for _, row := range rows {
					if int(row.TID) != p.n {
						t.Errorf("version of %d keys: key %d has tid %d", p.n, row.Key, row.TID)
						break
					}
				}
				if p.n > 0 {
					if tid, ok := p.tr.Search(Key(p.n)); !ok || int(tid) != p.n {
						t.Errorf("version of %d keys: Search(%d) = %d,%v", p.n, p.n, tid, ok)
					}
					sc, buf := p.tr.NewScan(1, Key(p.n)), make([]Pair, 64)
					got := 0
					for n := sc.NextPairs(buf); n > 0; n = sc.NextPairs(buf) {
						got += n
					}
					if est := p.tr.EstimateRange(1, Key(p.n)); got != p.n || est < p.n/2 || est > p.n {
						t.Errorf("version of %d keys: scan returned %d rows, estimate %d", p.n, got, est)
					}
				}
				done <- p.tr
			}
		}()
	}
	// Every version rewrites every key, so each publication retires
	// and, a few versions later, reuses most of the tree.
	for n := 0; n <= 400; n++ {
		for k := 1; k <= n; k++ {
			head.Insert(Key(k), TID(n))
		}
		pubs <- pub{head, n}
		head = head.Fork()
	drain:
		for {
			select {
			case old := <-done:
				head.Release(old)
			default:
				break drain
			}
		}
	}
	close(pubs)
	wg.Wait()
	close(done)
	for old := range done {
		head.Release(old)
	}
	if err := head.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if head.Retired() != 0 {
		t.Fatalf("%d blocks retired with every version released", head.Retired())
	}
}

// TestForkMisuse: the calls only a bug makes.
func TestForkMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Fork of a simulated tree", func() { MustNew(Config{Width: 1}).Fork() })
	tr := MustNew(Config{Width: 1, Mem: memsys.DefaultNative()})
	v1 := tr.Fork()
	mustPanic("a second Fork of one version", func() { tr.Fork() })
	v2 := v1.Fork()
	mustPanic("a write to a frozen version", func() { v1.Insert(1, 1) })
	v2.Insert(1, 1)
	if _, ok := v1.Search(1); ok || v2.Len() != 1 {
		t.Fatal("a write to the successor showed in the frozen version")
	}
}

// TestWriteAfterForkPanics: the tree Fork froze is never written again,
// epoch 0 or not, released or not — its blocks are its successor's
// too. A write to it would change what the successor holds under it.
func TestWriteAfterForkPanics(t *testing.T) {
	tr := MustNew(Config{Width: 8, Prefetch: true, Mem: memsys.DefaultNative()})
	if err := tr.Bulkload(sortedPairs(1000), 1.0); err != nil {
		t.Fatal(err)
	}
	next := tr.Fork()
	for name, write := range map[string]func(){
		"Insert": func() { tr.Insert(5, 5) },
		"Delete": func() { tr.Delete(sortedPairs(1)[0].Key) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on the version Fork froze did not panic", name)
				}
			}()
			write()
		}()
	}
	next.Release(tr)
	if err := next.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, ok := next.Search(5); ok || next.Len() != 1000 {
		t.Fatalf("the successor holds %d pairs, key 5 found=%v", next.Len(), ok)
	}
}

// TestReleasedLineageClosesAccounting: once every older version is
// released the writable version is held to the whole block accounting
// again — carved = reachable + free — however often it was forked.
func TestReleasedLineageClosesAccounting(t *testing.T) {
	tr := MustNew(Config{Width: 1, Prefetch: true, Mem: memsys.DefaultNative()})
	if err := tr.Bulkload(sortedPairs(200), 1.0); err != nil {
		t.Fatal(err)
	}
	next := tr.Fork()
	for _, p := range sortedPairs(40) {
		next.Delete(p.Key) // retires the leaves the frozen version shares
	}
	next.Release(tr)
	if n := next.Retired(); n != 0 {
		t.Fatalf("%d blocks still retired with no older version live", n)
	}
	if err := next.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	next.allocBlock() // leaked: neither reachable nor free
	if err := next.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "neither reachable nor free") {
		t.Fatalf("CheckInvariants after a leaked block = %v, want the accounting error", err)
	}
}

// TestWritesInPlaceWithNoOlderVersionLive: a forked tree copies only
// while an older version is live; once it is released the writer owns
// every block and writes in place, as a tree made by New does.
func TestWritesInPlaceWithNoOlderVersionLive(t *testing.T) {
	tr := MustNew(Config{Width: 8, Prefetch: true, Mem: memsys.DefaultNative()})
	if err := tr.Bulkload(sortedPairs(10_000), 0.8); err != nil {
		t.Fatal(err)
	}
	next := tr.Fork()
	next.Insert(3, 3)
	if next.Copied() != next.Height() {
		t.Fatalf("a write beside a live frozen version copied %d blocks, want its path of %d", next.Copied(), next.Height())
	}
	next.Release(tr)
	copied, blocks := next.Copied(), next.Blocks()
	next.Insert(8*9000+1, 5) // a path the first write did not copy
	next.Delete(3)
	if next.Copied() != copied || next.Blocks() != blocks {
		t.Fatalf("writes with no older version live copied %d and carved %d blocks", next.Copied()-copied, next.Blocks()-blocks)
	}
	if err := next.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
