package core

import (
	"math/rand"
	"sync"
	"testing"

	"pbtree/internal/memsys"
)

// buildBatchTree bulkloads n spaced keys (key = 8*(i+1), tid = i+1)
// onto the given model.
func buildBatchTree(t *testing.T, cfg Config, n int) *Tree {
	t.Helper()
	tr := MustNew(cfg)
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{Key: Key(8 * (i + 1)), TID: TID(i + 1)}
	}
	if err := tr.Bulkload(pairs, 0.8); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSearchBatchMatchesSearch checks that a group search returns
// exactly what the same keys return one at a time, present and absent
// keys alike, on both memory models.
func TestSearchBatchMatchesSearch(t *testing.T) {
	for _, cfg := range []Config{
		{Width: 1, Mem: memsys.Default()},
		{Width: 8, Prefetch: true, Mem: memsys.Default()},
		{Width: 8, Prefetch: true, Mem: memsys.DefaultNative()},
		{Width: 8, Prefetch: true, JumpArray: JumpInternal, Mem: memsys.Default()},
	} {
		tr := buildBatchTree(t, cfg, 10_000)
		r := rand.New(rand.NewSource(7))
		// 64 keys fill the stack cursor; 100 take one from the heap.
		for _, m := range []int{64, 100} {
			keys := make([]Key, m)
			for i := range keys {
				if i%3 == 0 {
					keys[i] = Key(8*r.Intn(10_000) + 1 + r.Intn(7)) // absent
				} else {
					keys[i] = Key(8 * (r.Intn(10_000) + 1)) // present
				}
			}
			tids := make([]TID, len(keys))
			found := make([]bool, len(keys))
			tr.SearchBatch(keys, tids, found)
			for i, k := range keys {
				wantTID, wantOK := tr.Search(k)
				if found[i] != wantOK || (wantOK && tids[i] != wantTID) {
					t.Fatalf("%s: batch of %d, key %d: got (%d,%v), want (%d,%v)",
						tr.Name(), m, k, tids[i], found[i], wantTID, wantOK)
				}
			}
		}
	}
}

// TestSearchBatchEmptyAndBounds covers the degenerate inputs.
func TestSearchBatchEmptyAndBounds(t *testing.T) {
	tr := buildBatchTree(t, Config{Width: 8, Prefetch: true, Mem: memsys.DefaultNative()}, 100)
	tr.SearchBatch(nil, nil, nil) // no-op
	defer func() {
		if recover() == nil {
			t.Fatal("short result slices did not panic")
		}
	}()
	tr.SearchBatch(make([]Key, 4), make([]TID, 2), make([]bool, 4))
}

// TestSearchBatchOverlapsStalls is the acceptance check for the group
// search: on the simulated hierarchy, M searches advanced in lockstep
// must expose fewer stall cycles than the same M searches run
// back-to-back, because the group's node fetches pipeline in memory.
func TestSearchBatchOverlapsStalls(t *testing.T) {
	const n, batches, m = 200_000, 40, 16
	seqStall, grpStall := batchStalls(t, n, batches, m)
	if grpStall >= seqStall {
		t.Fatalf("group search did not reduce exposed stalls: sequential %d, group %d", seqStall, grpStall)
	}
	// The effect should be substantial, not marginal: the paper-model
	// memory system overlaps misses at B = T1/Tnext = 15.
	if float64(grpStall) > 0.8*float64(seqStall) {
		t.Fatalf("group search stall reduction too small: sequential %d, group %d", seqStall, grpStall)
	}
}

// batchStalls runs the same warmed workload sequentially and grouped
// on two identical simulated trees and returns the exposed stall
// cycles of each mode.
func batchStalls(t *testing.T, n, batches, m int) (seqStall, grpStall uint64) {
	t.Helper()
	mkKeys := func() [][]Key {
		r := rand.New(rand.NewSource(11))
		groups := make([][]Key, batches)
		for i := range groups {
			g := make([]Key, m)
			for j := range g {
				g[j] = Key(8 * (r.Intn(n) + 1))
			}
			groups[i] = g
		}
		return groups
	}
	run := func(group bool) uint64 {
		cfg := Config{Width: 8, Prefetch: true, Mem: memsys.Default()}
		tr := buildBatchTree(t, cfg, n)
		groups := mkKeys()
		// Warm the caches identically in both modes.
		for _, g := range groups {
			for _, k := range g {
				tr.Search(k)
			}
		}
		before := tr.Mem().Stats()
		tids := make([]TID, m)
		found := make([]bool, m)
		for _, g := range groups {
			if group {
				tr.SearchBatch(g, tids, found)
			} else {
				for _, k := range g {
					if _, ok := tr.Search(k); !ok {
						t.Fatalf("lost key %d", k)
					}
				}
			}
		}
		return tr.Mem().Stats().Sub(before).Stall
	}
	return run(false), run(true)
}

// TestSearchBatchConcurrent hammers one frozen tree with concurrent
// group searches on the native model; the race detector checks that
// the batch path shares no mutable state.
func TestSearchBatchConcurrent(t *testing.T) {
	tr := buildBatchTree(t, Config{Width: 8, Prefetch: true, Mem: memsys.DefaultNative()}, 50_000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			keys := make([]Key, 32)
			tids := make([]TID, 32)
			found := make([]bool, 32)
			for iter := 0; iter < 200; iter++ {
				for i := range keys {
					keys[i] = Key(8 * (r.Intn(50_000) + 1))
				}
				tr.SearchBatch(keys, tids, found)
				for i := range keys {
					if !found[i] || tids[i] != TID(keys[i]/8) {
						panic("batch lost a key under concurrency")
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
