package core

import (
	"math/rand"
	"testing"
)

func extTree(t *testing.T, chunkLines int) *Tree {
	t.Helper()
	return newTestTree(t, Config{
		Width: 8, Prefetch: true, JumpArray: JumpExternal, ChunkLines: chunkLines,
	})
}

func TestJPBulkloadEvenDistribution(t *testing.T) {
	tr := extTree(t, 8)
	pairs := sortedPairs(62 * 40) // 40 full leaves
	if err := tr.Bulkload(pairs, 0.5); err != nil {
		t.Fatal(err)
	}
	// At fill 0.5 every chunk is half full and the occupied slots are
	// spread out: no two adjacent occupied slots.
	for ck := tr.jpHead; ck != nil; ck = ck.next {
		prevOccupied := false
		for _, s := range ck.slots {
			if s != 0 && prevOccupied {
				t.Fatal("occupied slots not interleaved with empties at fill 0.5")
			}
			prevOccupied = s != 0
		}
	}
}

func TestJPHintsExactAfterBulkload(t *testing.T) {
	tr := extTree(t, 8)
	if err := tr.Bulkload(sortedPairs(62*20), 1.0); err != nil {
		t.Fatal(err)
	}
	for _, n := range leafViews(tr) {
		if h := tr.hint(n); h.chunk.slots[h.slot] != n.id {
			t.Fatal("hint not exact immediately after bulkload")
		}
	}
}

// TestJPHintsAreHints verifies stale hints are tolerated and repaired:
// after many splits shift slots around, every leaf is still locatable,
// and jpLocate fixes the slot index it finds.
func TestJPHintsAreHints(t *testing.T) {
	tr := extTree(t, 8)
	if err := tr.Bulkload(sortedPairs(62*20), 1.0); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 3000; i++ {
		tr.Insert(Key(r.Intn(62*20*8)+1), 1)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, n := range leafViews(tr) {
		ck, slot := tr.jpLocate(n)
		if ck.slots[slot] != n.id {
			t.Fatal("jpLocate returned wrong slot")
		}
		if h := tr.hint(n); h.slot != slot || h.chunk != ck {
			t.Fatal("jpLocate did not repair the hint")
		}
	}
}

func TestJPChunkSplit(t *testing.T) {
	// Tiny chunks (1 line = 14 slots) force chunk splits quickly.
	tr := newTestTree(t, Config{
		Width: 2, Prefetch: true, JumpArray: JumpExternal, ChunkLines: 1,
	})
	if err := tr.Bulkload(sortedPairs(14*15*5), 1.0); err != nil {
		t.Fatal(err)
	}
	tr.ResetUpdateStats()
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 4000; i++ {
		tr.Insert(Key(r.Intn(14*15*5*8)+1), 1)
	}
	st := tr.UpdateStats()
	if st.ChunkSplits == 0 {
		t.Fatal("expected chunk splits with 1-line chunks")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestJPChunkRemoval(t *testing.T) {
	tr := newTestTree(t, Config{
		Width: 2, Prefetch: true, JumpArray: JumpExternal, ChunkLines: 1,
	})
	pairs := sortedPairs(14 * 15 * 3)
	if err := tr.Bulkload(pairs, 1.0); err != nil {
		t.Fatal(err)
	}
	tr.ResetUpdateStats()
	r := rand.New(rand.NewSource(10))
	keys := shuffledKeys(r, pairs)
	for _, k := range keys {
		tr.Delete(k)
	}
	st := tr.UpdateStats()
	if st.JumpPointerRemovals == 0 || st.ChunkRemoves == 0 {
		t.Fatalf("expected jump pointer and chunk removals: %+v", st)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A single chunk must survive for the remaining (empty) root leaf.
	if tr.jpHead == nil {
		t.Fatal("jump-pointer array head lost")
	}
}

// TestJPDeletionLeavesHoles verifies deletion nulls slots rather than
// compacting (nothing moves during deletions, section 3.2).
func TestJPDeletionLeavesHoles(t *testing.T) {
	tr := extTree(t, 8)
	pairs := sortedPairs(62 * 10)
	if err := tr.Bulkload(pairs, 1.0); err != nil {
		t.Fatal(err)
	}
	// Record slot positions of the leaves that will survive.
	type pos struct {
		ck   *chunk
		slot int
	}
	positions := map[nodeID]pos{}
	var victims []Key
	for i, n := range leafViews(tr) {
		h := tr.hint(n)
		positions[n.id] = pos{h.chunk, h.slot}
		// Delete all keys of every second leaf.
		if i%2 == 1 {
			for _, k := range tr.keys(n)[:n.count()] {
				victims = append(victims, Key(k))
			}
		}
	}
	for _, k := range victims {
		tr.Delete(k)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Surviving leaves' jump pointers must not have moved.
	for _, n := range leafViews(tr) {
		if p := positions[n.id]; p.ck.slots[p.slot] != n.id {
			t.Fatal("deletion moved a surviving jump pointer")
		}
	}
}

func TestInternalJPAChainMaintained(t *testing.T) {
	tr := newTestTree(t, Config{Width: 2, Prefetch: true, JumpArray: JumpInternal})
	r := rand.New(rand.NewSource(31))
	model := map[Key]bool{}
	for i := 0; i < 8000; i++ {
		k := Key(r.Intn(10000) + 1)
		if r.Intn(3) != 0 {
			tr.Insert(k, TID(k))
			model[k] = true
		} else {
			tr.Delete(k)
			delete(model, k)
		}
		if i%1000 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(model) {
		t.Fatalf("Len=%d model=%d", tr.Len(), len(model))
	}
}

// TestHintRepairsCounted: shifting jump pointers leftward makes the
// shifted leaves' hints stale; later lookups must repair them.
func TestHintRepairsCounted(t *testing.T) {
	tr := newTestTree(t, Config{
		Width: 2, Prefetch: true, JumpArray: JumpExternal, ChunkLines: 2,
	})
	if err := tr.Bulkload(sortedPairs(14*100), 1.0); err != nil {
		t.Fatal(err)
	}
	tr.ResetUpdateStats()
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 3000; i++ {
		tr.Insert(Key(r.Intn(14*100*8)+1), 1)
	}
	// Scans locate starting leaves via hints; run a few.
	for i := 0; i < 50; i++ {
		tr.Scan(Key(r.Intn(14*100*8)+1), 100)
	}
	if tr.UpdateStats().HintRepairs == 0 {
		t.Fatal("expected some stale hints to be repaired")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
