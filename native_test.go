package pbtree_test

// Native-mode tests: the same index code that reproduces the paper's
// simulated numbers also runs at real wall-clock speed on the
// zero-cost Native memory model, and a frozen (post-bulkload) tree
// serves concurrent readers. Run with -race to verify the concurrency
// claims; BenchmarkNativeConcurrentSearch reports real ns/op.

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"pbtree"
)

// buildNativeTree bulkloads n sequential even keys (2, 4, ..., 2n)
// onto a fresh native model, with a heap table sharing its address
// space. A native tree keeps no jump-pointer array, so cfg's is
// dropped: a p^w_e or p^w_i config builds the link-free p^w tree that
// scans through its bottom non-leaf nodes. The returned tree is
// frozen: tests only read it.
func buildNativeTree(t testing.TB, cfg pbtree.Config, n int) (*pbtree.Tree, *pbtree.HeapTable) {
	t.Helper()
	mem := pbtree.DefaultNative()
	space := pbtree.NewAddressSpace(mem.Config().LineSize)
	tab := pbtree.MustNewHeap(mem, space, 64)
	cfg.Mem, cfg.JumpArray = mem, pbtree.JumpNone
	cfg.Space = space
	tree := pbtree.MustNew(cfg)
	pairs := make([]pbtree.Pair, n)
	for i := range pairs {
		k := pbtree.Key(2 * (i + 1))
		pairs[i] = pbtree.Pair{Key: k, TID: tab.Append(k)}
	}
	if err := tree.Bulkload(pairs, 1.0); err != nil {
		t.Fatal(err)
	}
	return tree, tab
}

// nativeConfigs covers every read-path variant of the simulated twin:
// plain, prefetched wide nodes, and both jump-pointer arrays. Each
// native tree is the link-free one of the same width.
var nativeConfigs = []struct {
	name string
	cfg  pbtree.Config
}{
	{"B+", pbtree.Config{Width: 1}},
	{"p8B+", pbtree.Config{Width: 8, Prefetch: true}},
	{"p8eB+", pbtree.Config{Width: 8, Prefetch: true, JumpArray: pbtree.JumpExternal}},
	{"p8iB+", pbtree.Config{Width: 8, Prefetch: true, JumpArray: pbtree.JumpInternal}},
}

// TestNativeMatchesSimulated checks that a native-model tree returns
// exactly the same results as its simulated twin, a linked tree with
// the config's jump-pointer array.
func TestNativeMatchesSimulated(t *testing.T) {
	const n = 5000
	for _, tc := range nativeConfigs {
		t.Run(tc.name, func(t *testing.T) {
			native, _ := buildNativeTree(t, tc.cfg, n)
			sim := pbtree.MustNew(tc.cfg)
			pairs := make([]pbtree.Pair, n)
			for i := range pairs {
				pairs[i] = pbtree.Pair{Key: pbtree.Key(2 * (i + 1)), TID: pbtree.TID(i + 1)}
			}
			if err := sim.Bulkload(pairs, 1.0); err != nil {
				t.Fatal(err)
			}
			for k := pbtree.Key(0); k <= 2*n+2; k++ {
				ntid, nok := native.Search(k)
				stid, sok := sim.Search(k)
				if nok != sok || ntid != stid {
					t.Fatalf("Search(%d): native (%d, %v) != simulated (%d, %v)", k, ntid, nok, stid, sok)
				}
			}
			if got, want := native.Scan(2, 1000), sim.Scan(2, 1000); got != want {
				t.Fatalf("Scan: native %d != simulated %d", got, want)
			}

			// Churn both trees with the same seeded inserts and
			// deletes (splits, redistributions, node removals), then
			// compare every read path.
			r := rand.New(rand.NewSource(19))
			for i := 0; i < 4*n; i++ {
				k := pbtree.Key(r.Intn(3 * n))
				if r.Intn(3) == 0 {
					if a, b := native.Delete(k), sim.Delete(k); a != b {
						t.Fatalf("Delete(%d): native %v != simulated %v", k, a, b)
					}
				} else if a, b := native.Insert(k, pbtree.TID(i)), sim.Insert(k, pbtree.TID(i)); a != b {
					t.Fatalf("Insert(%d): native %v != simulated %v", k, a, b)
				}
			}
			estimate := tc.cfg.JumpArray == pbtree.JumpNone
			compareReads(t, native, sim, r, 0, 3*n+2, estimate)

			// Then delete keys from the left until the native tree has
			// lost a level — its roots' left children emptied and
			// collapsed — and compare again above the deleted keys.
			height, from := native.Height(), pbtree.Key(0)
			for ; native.Height() >= height && from < 3*n; from++ {
				if a, b := native.Delete(from), sim.Delete(from); a != b {
					t.Fatalf("Delete(%d): native %v != simulated %v", from, a, b)
				}
			}
			if native.Height() >= height {
				t.Fatalf("deleting every key left the tree %d levels high", native.Height())
			}
			compareReads(t, native, sim, r, from, 3*n+2, estimate)
		})
	}
}

// compareReads checks every read path of a churned native tree against
// its simulated twin over keys in [lo, hi): group search, a pair scan
// and — when the twin has no jump-pointer array, which changes node
// fan-outs — range estimation.
func compareReads(t *testing.T, native, sim *pbtree.Tree, r *rand.Rand, lo, hi pbtree.Key, estimate bool) {
	t.Helper()
	for _, tr := range []*pbtree.Tree{native, sim} {
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]pbtree.Key, 100) // above SearchBatch's stack cursor too
	ntids, stids := make([]pbtree.TID, len(keys)), make([]pbtree.TID, len(keys))
	nfound, sfound := make([]bool, len(keys)), make([]bool, len(keys))
	for _, group := range []int{1, 16, 64, len(keys)} {
		for i := range keys[:group] {
			keys[i] = lo + pbtree.Key(r.Intn(int(hi-lo)))
		}
		native.SearchBatch(keys[:group], ntids, nfound)
		sim.SearchBatch(keys[:group], stids, sfound)
		for i, k := range keys[:group] {
			tid, ok := sim.Search(k)
			if ntids[i] != tid || nfound[i] != ok || stids[i] != tid || sfound[i] != ok {
				t.Fatalf("SearchBatch(%d keys)[%d]=%d: native (%d, %v), simulated (%d, %v), Search (%d, %v)",
					group, i, k, ntids[i], nfound[i], stids[i], sfound[i], tid, ok)
			}
		}
	}
	nbuf, sbuf := make([]pbtree.Pair, 97), make([]pbtree.Pair, 97)
	ns, ss := native.NewScan(lo+100, lo+(hi-lo-2)*2/3), sim.NewScan(lo+100, lo+(hi-lo-2)*2/3)
	rows := 0
	for {
		got, want := ns.NextPairs(nbuf), ss.NextPairs(sbuf)
		if got != want || !slices.Equal(nbuf[:got], sbuf[:want]) {
			t.Fatalf("NextPairs after %d rows: native %d rows != simulated %d rows, or contents differ", rows, got, want)
		}
		if got == 0 {
			break
		}
		rows += got
	}
	if rows == 0 {
		t.Fatal("pair scan returned nothing")
	}
	for i := 0; i < 200 && estimate; i++ {
		a := lo + pbtree.Key(r.Intn(int(hi-lo-2)))
		b := a + pbtree.Key(r.Intn(int(hi-lo-2)/3))
		if got, want := native.EstimateRange(a, b), sim.EstimateRange(a, b); got != want {
			t.Fatalf("EstimateRange(%d, %d): native %d != simulated %d", a, b, got, want)
		}
	}
}

// TestNativeConcurrentReads bulkloads once and hammers the frozen tree
// with parallel Search, Scan, SelectTIDs and IndexJoin goroutines,
// asserting every result matches a serial baseline. Run with -race.
func TestNativeConcurrentReads(t *testing.T) {
	const n = 20000
	for _, tc := range nativeConfigs {
		t.Run(tc.name, func(t *testing.T) {
			tree, tab := buildNativeTree(t, tc.cfg, n)

			// Serial baselines.
			outer := make([]pbtree.Key, 2000)
			for i := range outer {
				outer[i] = pbtree.Key(2*i + 1 + 2*(i%2)) // mix of hits and misses
			}
			wantJoin := pbtree.IndexJoin(outer, tree, nil)
			wantSel := pbtree.SelectTIDs(tree, 1001, 9001, pbtree.QueryOptions{}, nil)
			wantShort := pbtree.SelectTIDs(tree, 501, 551, pbtree.QueryOptions{}, nil)
			wantTuples := pbtree.SelectTuples(tree, tab, 1001, 9001, pbtree.QueryOptions{}, nil)
			buf := make([]pbtree.TID, 500)
			wantScan := tree.NewScan(777, pbtree.MaxKey).Next(buf)

			workers := 4 * runtime.GOMAXPROCS(0)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Point lookups: every key present, every odd key absent.
					for i := 0; i < 300; i++ {
						k := pbtree.Key(2 * ((w*131+i*17)%n + 1))
						tid, ok := tree.Search(k)
						if !ok || tid != pbtree.TID(k/2) {
							t.Errorf("worker %d: Search(%d) = (%d, %v), want (%d, true)", w, k, tid, ok, k/2)
							return
						}
						if _, ok := tree.Search(k - 1); ok {
							t.Errorf("worker %d: Search(%d) found a missing key", w, k-1)
							return
						}
					}
					// Range scans.
					lbuf := make([]pbtree.TID, 500)
					if got := tree.NewScan(777, pbtree.MaxKey).Next(lbuf); got != wantScan {
						t.Errorf("worker %d: Scan = %d, want %d", w, got, wantScan)
						return
					}
					// Adaptive selections (long exercises the prefetching
					// scanner, short the estimate + plain scanner).
					if got := pbtree.SelectTIDs(tree, 1001, 9001, pbtree.QueryOptions{}, nil); got != wantSel {
						t.Errorf("worker %d: SelectTIDs = %d, want %d", w, got, wantSel)
						return
					}
					if got := pbtree.SelectTIDs(tree, 501, 551, pbtree.QueryOptions{}, nil); got != wantShort {
						t.Errorf("worker %d: short SelectTIDs = %d, want %d", w, got, wantShort)
						return
					}
					if got := pbtree.SelectTuples(tree, tab, 1001, 9001, pbtree.QueryOptions{}, nil); got != wantTuples {
						t.Errorf("worker %d: SelectTuples = %d, want %d", w, got, wantTuples)
						return
					}
					// Index join probes.
					if got := pbtree.IndexJoin(outer, tree, nil); got != wantJoin {
						t.Errorf("worker %d: IndexJoin = %d, want %d", w, got, wantJoin)
						return
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestNativeHotPathIsSimulatorFree proves native-mode reads never
// reach the simulator: an uncounted Native model records nothing, and
// no *Hierarchy exists to accumulate stall cycles.
func TestNativeHotPathIsSimulatorFree(t *testing.T) {
	tree, _ := buildNativeTree(t, pbtree.Config{Width: 8, Prefetch: true}, 10000)
	native, ok := tree.Mem().(*pbtree.Native)
	if !ok {
		t.Fatalf("tree.Mem() = %T, want *pbtree.Native", tree.Mem())
	}
	for i := 0; i < 1000; i++ {
		tree.Search(pbtree.Key(2 * (i + 1)))
	}
	tree.Scan(2, 5000)
	if got := native.Stats(); got != (pbtree.MemStats{}) {
		t.Fatalf("native stats after reads = %+v, want zero (no simulator accounting)", got)
	}
	if got := native.Now(); got != 0 {
		t.Fatalf("native clock advanced to %d; the hot path must not touch a simulated clock", got)
	}
}

// BenchmarkNativeConcurrentSearch measures real (wall-clock) search
// throughput on the native model across GOMAXPROCS goroutines:
//
//	go test -bench NativeConcurrentSearch -cpu 1,2,4,8 .
func BenchmarkNativeConcurrentSearch(b *testing.B) {
	const n = 1 << 20
	for _, tc := range nativeConfigs {
		b.Run(tc.name, func(b *testing.B) {
			tree, _ := buildNativeTree(b, tc.cfg, n)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					k := pbtree.Key(2 * ((i*2654435761)%n + 1))
					if _, ok := tree.Search(k); !ok {
						b.Fatalf("lost key %d", k)
					}
					i++
				}
			})
		})
	}
}

// TestNativeMetricsConcurrent serves concurrent reads with the serving
// metrics attached and checks the counters add up. Run with -race: the
// histograms must be safe under full read concurrency.
func TestNativeMetricsConcurrent(t *testing.T) {
	const n = 20000
	tree, _ := buildNativeTree(t, pbtree.Config{Width: 8, Prefetch: true}, n)
	m := pbtree.NewMetrics()

	workers := 4 * runtime.GOMAXPROCS(0)
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]pbtree.TID, 100)
			for i := 0; i < perWorker; i++ {
				k := pbtree.Key(2 * ((w*131+i*17)%n + 1))
				stop := m.Time(pbtree.OpSearch)
				_, ok := tree.Search(k)
				stop()
				if !ok {
					t.Errorf("worker %d: lost key %d", w, k)
					return
				}
			}
			stop := m.Time(pbtree.OpScan)
			tree.NewScan(2, pbtree.MaxKey).Next(buf)
			stop()
		}(w)
	}
	wg.Wait()

	if got, want := m.Snapshot(pbtree.OpSearch).Count, uint64(workers*perWorker); got != want {
		t.Errorf("search count = %d, want %d", got, want)
	}
	if got, want := m.Snapshot(pbtree.OpScan).Count, uint64(workers); got != want {
		t.Errorf("scan count = %d, want %d", got, want)
	}
	if m.Snapshot(pbtree.OpSearch).Quantile(0.5) == 0 {
		t.Error("search p50 is zero; clocks did not advance")
	}
}

// BenchmarkNativeSearchMetered bounds the cost of leaving the serving
// metrics on: bare vs metrics-wrapped native searches under the same
// concurrency. The delta is the full per-op instrumentation price (two
// clock reads plus three atomic adds).
func BenchmarkNativeSearchMetered(b *testing.B) {
	const n = 1 << 20
	tree, _ := buildNativeTree(b, pbtree.Config{Width: 8, Prefetch: true}, n)
	search := func(i int) {
		k := pbtree.Key(2 * ((i*2654435761)%n + 1))
		if _, ok := tree.Search(k); !ok {
			b.Fatalf("lost key %d", k)
		}
	}
	b.Run("bare", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				search(i)
				i++
			}
		})
	})
	b.Run("metered", func(b *testing.B) {
		m := pbtree.NewMetrics()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				stop := m.Time(pbtree.OpSearch)
				search(i)
				stop()
				i++
			}
		})
	})
}

// BenchmarkNativeConcurrentScan measures wall-clock segmented-scan
// throughput (500 tupleIDs per scan) under concurrency.
func BenchmarkNativeConcurrentScan(b *testing.B) {
	const n = 1 << 20
	tree, _ := buildNativeTree(b, pbtree.Config{Width: 8, Prefetch: true}, n)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]pbtree.TID, 500)
		i := 0
		for pb.Next() {
			start := pbtree.Key(2 * ((i*2654435761)%(n-1000) + 1))
			if got := tree.NewScan(start, pbtree.MaxKey).Next(buf); got == 0 {
				b.Fatal("empty scan")
			}
			i++
		}
	})
}
