package backend

import (
	"sync"
	"sync/atomic"
	"testing"

	"pbtree/internal/core"
	"pbtree/internal/memsys"
)

// newTestPBTree returns a sealed non-durable engine over pairs, on
// narrow nodes so that a few hundred keys make a tall tree.
func newTestPBTree(t *testing.T, width int, pairs []core.Pair) *PBTree {
	t.Helper()
	b := NewPBTree(core.Config{Width: width, Prefetch: true, Mem: memsys.DefaultNative()}, 0.8, nil, "")
	if err := b.Bootstrap(All(pairs)); err != nil {
		t.Fatal(err)
	}
	if err := b.Seal(1); err != nil {
		t.Fatal(err)
	}
	return b
}

func seqPairs(n int) []core.Pair {
	ps := make([]core.Pair, n)
	for i := range ps {
		ps[i] = core.Pair{Key: core.Key(8 * (i + 1)), TID: core.TID(i + 1)}
	}
	return ps
}

// put applies one single-pair batch.
func put(t *testing.T, b *PBTree, version uint64, k core.Key, tid core.TID) {
	t.Helper()
	acked := false
	if err := b.ApplyBatch([]Write{{Puts: []core.Pair{{Key: k, TID: tid}}}}, version, version, func(err error) {
		if acked = true; err != nil {
			t.Fatalf("batch %d acked %v", version, err)
		}
	}); err != nil || !acked {
		t.Fatalf("batch %d: err %v, acked %v", version, err, acked)
	}
}

// TestPBTreeStatsBesideSplits polls Stats — what /statsz, /metrics and
// the shard gauges do from their own goroutines — while single-key
// batches split a one-leaf tree up to height 3. A published version's
// header never changes, so there is nothing to race on (the engine
// this one replaced read the height of a tree it was replaying onto).
func TestPBTreeStatsBesideSplits(t *testing.T) {
	b := newTestPBTree(t, 1, nil)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := Stats{}
			for !stop.Load() {
				s := b.Stats()
				if s.Version < last.Version || s.Height < last.Height || s.Count < last.Count || s.Height < 1 {
					t.Errorf("Stats went from %+v to %+v", last, s)
					return
				}
				if uint64(s.Count)+1 != s.Version {
					t.Errorf("version %d holds %d keys, want one per batch", s.Version, s.Count)
					return
				}
				last = s
			}
		}()
	}
	version := uint64(1)
	for b.Stats().Height < 3 || version < 3000 {
		version++
		put(t, b, version, core.Key(version*7919%100003), core.TID(version))
	}
	stop.Store(true)
	wg.Wait()
	if s := b.Stats(); s.Count != int(version-1) || s.Retired != 0 {
		t.Fatalf("after %d batches: %+v", version-1, s)
	}
}

// TestPBTreePinnedSnapshot is the collapse that cannot recur: with a
// snapshot held across 50 000 single-put batches — a streaming cursor
// somebody forgot — no batch costs more than its path (it once cost a
// rebuild of the whole shard, every time), the arena grows by no more
// than the copies and splits made, the held snapshot still reads what
// it read at first, and once it is released one more write puts every
// retired block back on the free list.
func TestPBTreePinnedSnapshot(t *testing.T) {
	const n, batches = 20_000, 50_000
	b := newTestPBTree(t, 8, seqPairs(n))
	pinned := b.Snapshot()
	first := b.Stats()
	prev := first
	for i := 0; i < batches; i++ {
		version := uint64(i + 2)
		put(t, b, version, core.Key(8*(1+i*7919%n)+1+i%7), core.TID(version))
		s := b.Stats()
		// A put copies its path; a split adds a block a level, a new
		// root one more.
		if copied := s.Copied - prev.Copied; copied > uint64(s.Height) {
			t.Fatalf("batch %d copied %d blocks in a tree of height %d", i, copied, s.Height)
		}
		if grown := s.Blocks - prev.Blocks; grown > 2*s.Height+1 {
			t.Fatalf("batch %d grew the arena by %d blocks (height %d)", i, grown, s.Height)
		}
		if s.PinnedSince == 0 {
			t.Fatalf("batch %d: a snapshot is held, Stats says none is: %+v", i, s)
		}
		prev = s
	}
	last := b.Stats()
	if grown, made := last.Blocks-first.Blocks, int(last.Copied-first.Copied)+last.Count-first.Count; grown > made {
		t.Fatalf("the arena grew by %d blocks for %d copies and at most %d splits", grown, last.Copied-first.Copied, last.Count-first.Count)
	}
	if last.Retired == 0 {
		t.Fatal("nothing is retired with the first version still held")
	}
	if pinned.Count() != n || pinned.Version() != 1 {
		t.Fatalf("the held snapshot is version %d with %d keys", pinned.Version(), pinned.Count())
	}
	rows := make([]core.Pair, n+1)
	rows = rows[:pinned.Run(0, core.MaxKey).NextPairs(rows)]
	if len(rows) != n {
		t.Fatalf("the held snapshot scans %d rows, want %d", len(rows), n)
	}
	for i, p := range rows {
		if p != (core.Pair{Key: core.Key(8 * (i + 1)), TID: core.TID(i + 1)}) {
			t.Fatalf("the held snapshot's row %d is %+v", i, p)
		}
	}
	pinned.Release()
	put(t, b, batches+2, 4, 4)
	if s := b.Stats(); s.Retired != 0 || s.PinnedSince != 0 {
		t.Fatalf("one write after the release: %+v, want nothing retired or held", s)
	}
	// And the blocks are reused: the same load again grows nothing.
	blocks := b.Stats().Blocks
	for i := 0; i < 1000; i++ {
		put(t, b, uint64(batches+3+i), core.Key(8*(1+i*7919%n)+1+i%7), 1)
	}
	if s := b.Stats(); s.Blocks != blocks {
		t.Fatalf("1000 overwrites after the release grew the arena from %d to %d blocks", blocks, s.Blocks)
	}
}

// TestPBTreeCompactStartsNewArena: a Compact batch publishes a rebuilt
// tree; snapshots of the old one stay readable, their release is
// nobody's business but the garbage collector's, and writes go on.
func TestPBTreeCompactStartsNewArena(t *testing.T) {
	b := newTestPBTree(t, 2, seqPairs(500))
	old := b.Snapshot()
	for v := uint64(2); v < 300; v++ {
		put(t, b, v, core.Key(8*v+3), core.TID(v))
	}
	mid := b.Snapshot()
	var ackErr error
	if err := b.ApplyBatch([]Write{{Dels: []core.Key{8}, Compact: true}}, 300, 300, func(err error) { ackErr = err }); err != nil || ackErr != nil {
		t.Fatal(err, ackErr)
	}
	if s := b.Stats(); s.Count != 500+298-1 || s.Retired != 0 {
		t.Fatalf("after the compaction: %+v", s)
	}
	put(t, b, 301, 5, 5)
	if _, ok := mid.Get(8); !ok || mid.Count() != 500+298 || old.Count() != 500 {
		t.Fatalf("snapshots of the old tree hold %d and %d keys", old.Count(), mid.Count())
	}
	old.Release()
	mid.Release()
	put(t, b, 302, 6, 6)
	cur := b.Snapshot()
	defer cur.Release()
	if tid, ok := cur.Get(6); !ok || tid != 6 || cur.Count() != 500+298-1+2 {
		t.Fatalf("the rebuilt tree holds %d keys, Get(6) = %d,%v", cur.Count(), tid, ok)
	}
	if _, ok := cur.Get(8); ok {
		t.Fatal("the compacting batch's delete is missing from the rebuilt tree")
	}
}
