package core

import (
	"math/rand"
	"testing"

	"pbtree/internal/memsys"
)

func memsysSpace() *memsys.AddressSpace { return memsys.NewAddressSpace(64) }

func TestEstimateRangeAccuracy(t *testing.T) {
	for _, fill := range []float64{0.7, 1.0} {
		tr := newTestTree(t, Config{Width: 8, Prefetch: true, JumpArray: JumpExternal})
		pairs := sortedPairs(50000)
		if err := tr.Bulkload(pairs, fill); err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(11))
		for trial := 0; trial < 200; trial++ {
			i := r.Intn(len(pairs) - 1)
			j := i + r.Intn(len(pairs)-i)
			actual := j - i + 1
			est := tr.EstimateRange(pairs[i].Key, pairs[j].Key)
			// The heuristic only needs order-of-magnitude accuracy;
			// demand a factor of three on ranges above 50 pairs.
			if actual >= 50 {
				if est < actual/3 || est > actual*3 {
					t.Fatalf("fill %v: range %d estimated as %d", fill, actual, est)
				}
			}
		}
	}
}

func TestEstimateRangeEdges(t *testing.T) {
	tr := newTestTree(t, Config{Width: 1})
	if tr.EstimateRange(1, 100) != 0 {
		t.Fatal("empty tree should estimate 0")
	}
	tr.Insert(10, 1)
	if got := tr.EstimateRange(20, 10); got != 0 {
		t.Fatalf("inverted range estimated %d", got)
	}
	if got := tr.EstimateRange(1, 100); got < 1 || got > 1 {
		t.Fatalf("whole-tree estimate %d, want 1", got)
	}
}

func TestEstimateRangeMonotonic(t *testing.T) {
	tr := newTestTree(t, Config{Width: 4, Prefetch: true})
	pairs := sortedPairs(10000)
	if err := tr.Bulkload(pairs, 1.0); err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, j := range []int{10, 100, 1000, 9999} {
		est := tr.EstimateRange(pairs[0].Key, pairs[j].Key)
		if est < prev {
			t.Fatalf("estimate not monotone at %d: %d < %d", j, est, prev)
		}
		prev = est
	}
}

func TestNoPrefetchScanCorrectAndCheaper(t *testing.T) {
	tr := newTestTree(t, Config{Width: 8, Prefetch: true, JumpArray: JumpExternal})
	pairs := sortedPairs(50000)
	if err := tr.Bulkload(pairs, 1.0); err != nil {
		t.Fatal(err)
	}
	// Correctness: same results as the prefetching scanner.
	a := collectScan(tr.NewScan(pairs[10].Key, pairs[500].Key), 64)
	b := collectScan(tr.NewScanNoPrefetch(pairs[10].Key, pairs[500].Key), 64)
	if len(a) != len(b) {
		t.Fatalf("prefetch %d vs plain %d results", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs", i)
		}
	}
	// Cost: for a 10-tupleID range the plain scanner must be cheaper
	// (the section 4.3 startup-cost observation).
	mem := tr.Mem()
	measure := func(plain bool) uint64 {
		mem.FlushCaches()
		before := mem.Now()
		var s *Scanner
		if plain {
			s = tr.NewScanNoPrefetch(pairs[100].Key, MaxKey)
		} else {
			s = tr.NewScan(pairs[100].Key, MaxKey)
		}
		buf := make([]TID, 10)
		s.Next(buf)
		return mem.Now() - before
	}
	withPF := measure(false)
	plain := measure(true)
	if plain >= withPF {
		t.Errorf("plain short scan (%d) not cheaper than prefetching (%d)", plain, withPF)
	}
}

func TestAblationKnobs(t *testing.T) {
	// PackChunks: bulkload packs pointers to the front of each chunk.
	packed := newTestTree(t, Config{Width: 8, Prefetch: true, JumpArray: JumpExternal,
		Ablation: Ablation{PackChunks: true}})
	if err := packed.Bulkload(sortedPairs(62*40), 0.5); err != nil {
		t.Fatal(err)
	}
	ck := packed.jpHead
	if ck.slots[0] == 0 || ck.slots[1] == 0 {
		t.Error("PackChunks should fill slots contiguously")
	}
	if err := packed.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The packed layout must still be functionally correct under
	// churn.
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 3000; i++ {
		packed.Insert(Key(r.Intn(62*40*8)+1), 1)
	}
	if err := packed.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// ExactHints: hints stay exact through churn.
	exact := newTestTree(t, Config{Width: 8, Prefetch: true, JumpArray: JumpExternal,
		Ablation: Ablation{ExactHints: true}})
	if err := exact.Bulkload(sortedPairs(62*40), 1.0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		exact.Insert(Key(r.Intn(62*40*8)+1), 1)
	}
	if err := exact.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	stale := 0
	for _, n := range leafViews(exact) {
		if h := exact.hint(n); h.chunk.slots[h.slot] != n.id {
			stale++
		}
	}
	if stale != 0 {
		t.Errorf("ExactHints left %d stale hints", stale)
	}

	// NoBufferPrefetch: correct, but slower on long scans.
	noBuf := newTestTree(t, Config{Width: 8, Prefetch: true, JumpArray: JumpExternal,
		Ablation: Ablation{NoBufferPrefetch: true}})
	full := newTestTree(t, Config{Width: 8, Prefetch: true, JumpArray: JumpExternal})
	pairs := sortedPairs(100000)
	if err := noBuf.Bulkload(pairs, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := full.Bulkload(pairs, 1.0); err != nil {
		t.Fatal(err)
	}
	noBuf.Mem().FlushCaches()
	full.Mem().FlushCaches()
	nb := noBuf.Mem().Now()
	if got := noBuf.Scan(8, 50000); got != 50000 {
		t.Fatal("short scan")
	}
	nb = noBuf.Mem().Now() - nb
	fb := full.Mem().Now()
	full.Scan(8, 50000)
	fb = full.Mem().Now() - fb
	if nb <= fb {
		t.Errorf("scan without buffer prefetch (%d) should be slower than with (%d)", nb, fb)
	}
}

func TestSharedAddressSpace(t *testing.T) {
	mem := newTestTree(t, Config{Width: 1}).Mem() // reuse a default hierarchy
	space := memsysSpace()
	a := MustNew(Config{Width: 1, Mem: mem, Space: space})
	b := MustNew(Config{Width: 1, Mem: mem, Space: space})
	a.Insert(1, 1)
	b.Insert(2, 2)
	// Different trees in a shared space must not alias addresses.
	if a.addr(a.view(a.root)) == b.addr(b.view(b.root)) {
		t.Fatal("shared space handed out overlapping node addresses")
	}
}
