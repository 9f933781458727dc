// Quickstart: build a Prefetching B+-Tree, load it, and run the basic
// operations — search, insertion, deletion and a segmented range scan
// — printing the simulated cycle cost of each step.
package main

import (
	"fmt"

	"pbtree"
)

func main() {
	// A p8eB+-Tree: nodes 8 cache lines wide, whole-node prefetching,
	// and an external jump-pointer array for range-scan prefetching.
	t := pbtree.MustNew(pbtree.Config{
		Width:     8,
		Prefetch:  true,
		JumpArray: pbtree.JumpExternal,
	})

	// Bulkload one million <key, tupleID> pairs at a 90% fill factor.
	const n = 1_000_000
	pairs := make([]pbtree.Pair, n)
	for i := range pairs {
		pairs[i] = pbtree.Pair{Key: pbtree.Key(2 * (i + 1)), TID: pbtree.TID(i + 1)}
	}
	if err := t.Bulkload(pairs, 0.9); err != nil {
		panic(err)
	}
	// SpaceUsed is simulated bytes here; with Mem: pbtree.DefaultNative()
	// it is the tree's real heap footprint (a node is one real block).
	fmt.Printf("%s: %d keys, %d levels, %.1f MB simulated\n",
		t.Name(), t.Len(), t.Height(), float64(t.SpaceUsed())/(1<<20))

	mem := t.Mem()
	mem.ResetStats()

	// Point lookups.
	start := mem.Now()
	for k := pbtree.Key(2); k <= 2000; k += 2 {
		if _, ok := t.Search(k); !ok {
			panic("key lost")
		}
	}
	fmt.Printf("1000 searches:        %8d simulated cycles\n", mem.Now()-start)

	// Insertions of new keys (odd keys fall between the loaded ones).
	start = mem.Now()
	for k := pbtree.Key(1); k <= 2000; k += 2 {
		t.Insert(k, pbtree.TID(k))
	}
	fmt.Printf("1000 insertions:      %8d simulated cycles\n", mem.Now()-start)

	// A segmented range scan: the scanner pauses whenever the return
	// buffer fills and resumes on the next call, prefetching the leaf
	// that is k nodes ahead through the jump-pointer array.
	start = mem.Now()
	sc := t.NewScan(1000, pbtree.MaxKey)
	buf := make([]pbtree.TID, 4096)
	total := 0
	for {
		got := sc.Next(buf)
		if got == 0 {
			break
		}
		total += got
		if total >= 100_000 {
			break
		}
	}
	fmt.Printf("scan of %d pairs: %8d simulated cycles\n", total, mem.Now()-start)

	// Deletions (lazy: structural changes only when a node empties).
	start = mem.Now()
	for k := pbtree.Key(1); k <= 2000; k += 2 {
		if !t.Delete(k) {
			panic("delete lost a key")
		}
	}
	fmt.Printf("1000 deletions:       %8d simulated cycles\n", mem.Now()-start)

	st := mem.Stats()
	fmt.Printf("\ncycle breakdown: busy=%d stall=%d (%.0f%% of time on dcache stalls)\n",
		st.Busy, st.Stall, 100*float64(st.Stall)/float64(st.Total()))
	us := t.UpdateStats()
	fmt.Printf("structural events: %d leaf splits, %d jump-pointer inserts, %d hint repairs\n",
		us.LeafSplits, us.JumpPointerInserts, us.HintRepairs)
}
