package core

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"

	"pbtree/internal/memsys"
)

// measure runs fn and returns the simulated cycles it consumed.
func measure(tr *Tree, fn func()) uint64 {
	before := tr.Mem().Now()
	fn()
	return tr.Mem().Now() - before
}

// buildMeasured creates a tree on a fresh hierarchy, bulkloads it and
// resets the stats so subsequent measurements are clean.
func buildMeasured(t *testing.T, cfg Config, n int, fill float64) *Tree {
	t.Helper()
	cfg.Mem = memsys.Default()
	tr := MustNew(cfg)
	if err := tr.Bulkload(sortedPairs(n), fill); err != nil {
		t.Fatal(err)
	}
	tr.Mem().ResetStats()
	return tr
}

// randomSearches performs searches for cnt random existing keys and
// returns the simulated cycles, optionally clearing the cache between
// searches (the cold-cache protocol).
func randomSearches(tr *Tree, n, cnt int, cold bool, seed int64) uint64 {
	r := rand.New(rand.NewSource(seed))
	start := tr.Mem().Now()
	for i := 0; i < cnt; i++ {
		if cold {
			tr.Mem().FlushCaches()
		}
		tr.Search(Key(8 * (r.Intn(n) + 1)))
	}
	return tr.Mem().Now() - start
}

// TestWiderNodesSpeedUpSearch pins the paper's core search claim: with
// prefetching, the p8 tree beats the B+ tree, and without prefetching
// wide nodes lose (equation 1 / Figure 2(b)).
func TestWiderNodesSpeedUpSearch(t *testing.T) {
	const n = 200000
	base := buildMeasured(t, Config{Width: 1}, n, 1.0)
	p8 := buildMeasured(t, Config{Width: 8, Prefetch: true}, n, 1.0)
	wideNoPF := buildMeasured(t, Config{Width: 8}, n, 1.0)

	tb := randomSearches(base, n, 2000, true, 1)
	tp := randomSearches(p8, n, 2000, true, 1)
	tw := randomSearches(wideNoPF, n, 2000, true, 1)

	if tp >= tb {
		t.Errorf("p8B+ cold search (%d) not faster than B+ (%d)", tp, tb)
	}
	speedup := float64(tb) / float64(tp)
	if speedup < 1.2 || speedup > 2.2 {
		t.Errorf("p8B+ speedup %.2f outside the paper's plausible band", speedup)
	}
	if tw <= tb {
		t.Errorf("wide nodes WITHOUT prefetch (%d) should lose to B+ (%d)", tw, tb)
	}
}

func TestWarmBeatsCold(t *testing.T) {
	const n = 400000
	tr := buildMeasured(t, Config{Width: 8, Prefetch: true}, n, 1.0)
	warm := randomSearches(tr, n, 1000, false, 2)
	tr.Mem().FlushCaches()
	cold := randomSearches(tr, n, 1000, true, 2)
	if warm >= cold {
		t.Errorf("warm searches (%d) not cheaper than cold (%d)", warm, cold)
	}
}

// TestScanSpeedupLadder pins the range-scan result: p8 beats B+, and
// the jump-pointer variants beat p8 by roughly another factor of two
// (Figure 10).
func TestScanSpeedupLadder(t *testing.T) {
	const n = 200000
	const scanLen = 50000
	times := map[string]uint64{}
	for _, cfg := range []Config{
		{Width: 1},
		{Width: 8, Prefetch: true},
		{Width: 8, Prefetch: true, JumpArray: JumpExternal},
		{Width: 8, Prefetch: true, JumpArray: JumpInternal},
	} {
		tr := buildMeasured(t, cfg, n, 1.0)
		tr.Mem().FlushCaches()
		times[tr.Name()] = measure(tr, func() {
			if got := tr.Scan(8, scanLen); got != scanLen {
				t.Fatalf("%s: scanned %d", tr.Name(), got)
			}
		})
	}
	if times["p8B+"] >= times["B+"] {
		t.Errorf("p8 scan (%d) not faster than B+ (%d)", times["p8B+"], times["B+"])
	}
	if times["p8eB+"] >= times["p8B+"] || times["p8iB+"] >= times["p8B+"] {
		t.Errorf("jump-pointer scans must beat p8: %v", times)
	}
	overall := float64(times["B+"]) / float64(times["p8eB+"])
	if overall < 4 || overall > 13 {
		t.Errorf("p8e overall scan speedup %.1f outside plausible band (paper: 6.5-8.7)", overall)
	}
	// The two jump-pointer implementations should be close (paper:
	// "nearly identical").
	ratio := float64(times["p8eB+"]) / float64(times["p8iB+"])
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("external/internal scan ratio %.2f not comparable", ratio)
	}
}

// TestShortScanStartupCost reproduces the small-range caveat: for very
// short scans the jump-pointer startup overhead shows (Figure 10(a)).
func TestShortScanStartupCost(t *testing.T) {
	const n = 400000
	b := buildMeasured(t, Config{Width: 1}, n, 1.0)
	pe := buildMeasured(t, Config{Width: 8, Prefetch: true, JumpArray: JumpExternal}, n, 1.0)
	b.Mem().FlushCaches()
	pe.Mem().FlushCaches()
	tb := measure(b, func() { b.Scan(8, 10) })
	te := measure(pe, func() { pe.Scan(8, 10) })
	// The paper found p8e *slower* than B+ at 10 tupleIDs; at minimum
	// the speedup must be far below the long-scan speedup.
	if float64(tb)/float64(te) > 2.5 {
		t.Errorf("10-tuple scan speedup %.2f implausibly high (B+=%d, p8e=%d)",
			float64(tb)/float64(te), tb, te)
	}
}

// TestUpdatesFasterWithWideNodes pins the paper's update claim: both
// insertion and deletion on p8 variants beat the B+ tree. It uses the
// cold-cache protocol of Figure 12(b)/(d), which isolates the
// per-operation cost from L2 residency effects.
func TestUpdatesFasterWithWideNodes(t *testing.T) {
	const n = 400000
	const ops = 2000
	insertTime := func(cfg Config, seed int64) uint64 {
		tr := buildMeasured(t, cfg, n, 1.0)
		r := rand.New(rand.NewSource(seed))
		return measure(tr, func() {
			for i := 0; i < ops; i++ {
				tr.Mem().FlushCaches()
				tr.Insert(Key(8*(r.Intn(n)+1)+1+r.Intn(7)), 1)
			}
		})
	}
	deleteTime := func(cfg Config, seed int64) uint64 {
		tr := buildMeasured(t, cfg, n, 1.0)
		r := rand.New(rand.NewSource(seed))
		return measure(tr, func() {
			for i := 0; i < ops; i++ {
				tr.Mem().FlushCaches()
				tr.Delete(Key(8 * (r.Intn(n) + 1)))
			}
		})
	}
	bIns := insertTime(Config{Width: 1}, 3)
	pIns := insertTime(Config{Width: 8, Prefetch: true}, 3)
	peIns := insertTime(Config{Width: 8, Prefetch: true, JumpArray: JumpExternal}, 3)
	if pIns >= bIns {
		t.Errorf("p8 insert (%d) not faster than B+ (%d)", pIns, bIns)
	}
	if float64(peIns) > 1.25*float64(pIns) {
		t.Errorf("p8e insert overhead too high: p8e=%d p8=%d", peIns, pIns)
	}
	bDel := deleteTime(Config{Width: 1}, 4)
	pDel := deleteTime(Config{Width: 8, Prefetch: true}, 4)
	if pDel >= bDel {
		t.Errorf("p8 delete (%d) not faster than B+ (%d)", pDel, bDel)
	}
}

// TestFewerSplitsWithWideNodes pins the Figure 13 mechanism: on
// 100%-full trees, wide nodes split far less often.
func TestFewerSplitsWithWideNodes(t *testing.T) {
	const n = 50000
	const ops = 5000
	splitFrac := func(cfg Config) float64 {
		tr := buildMeasured(t, cfg, n, 1.0)
		tr.ResetUpdateStats()
		r := rand.New(rand.NewSource(8))
		for i := 0; i < ops; i++ {
			tr.Insert(Key(8*(r.Intn(n)+1)+1+r.Intn(7)), 1)
		}
		st := tr.UpdateStats()
		return float64(st.InsertsWithSplit) / float64(st.Inserts)
	}
	fb := splitFrac(Config{Width: 1})
	fp := splitFrac(Config{Width: 8, Prefetch: true})
	if fp >= fb {
		t.Errorf("p8 split fraction %.3f not below B+ %.3f", fp, fb)
	}
}

// TestSpaceOverheadShrinksWithWidth pins the section 2.2 space claim:
// non-leaf space overhead decreases near-linearly with fanout.
func TestSpaceOverheadShrinksWithWidth(t *testing.T) {
	const n = 400000
	space := func(w int, pf bool) float64 {
		cfg := Config{Width: w, Prefetch: pf, Mem: memsys.Default()}
		tr := MustNew(cfg)
		if err := tr.Bulkload(sortedPairs(n), 1.0); err != nil {
			t.Fatal(err)
		}
		return float64(tr.SpaceUsed()) / float64(n)
	}
	b := space(1, false)
	p8 := space(8, true)
	if p8 >= b {
		t.Errorf("bytes/pair: p8 %.2f should be below B+ %.2f", p8, b)
	}
}

// TestSearchCycleBreakdown sanity-checks the Figure 1 shape: most B+
// search time is stall, and p8 removes a large share of it.
func TestSearchCycleBreakdown(t *testing.T) {
	const n = 500000
	b := buildMeasured(t, Config{Width: 1}, n, 1.0)
	randomSearches(b, n, 3000, false, 5)
	sb := b.Mem().Stats()
	if frac := float64(sb.Stall) / float64(sb.Total()); frac < 0.45 || frac > 0.9 {
		t.Errorf("B+ warm search stall fraction %.2f outside [0.45, 0.9] (paper: ~0.65)", frac)
	}
	p := buildMeasured(t, Config{Width: 8, Prefetch: true}, n, 1.0)
	randomSearches(p, n, 3000, false, 5)
	sp := p.Mem().Stats()
	if sp.Stall >= sb.Stall {
		t.Errorf("p8 stall cycles (%d) not below B+ (%d)", sp.Stall, sb.Stall)
	}
}

// TestScanStallMostlyHidden pins the Figure 17(b) claim: jump-pointer
// prefetching hides the vast majority of scan stall time.
func TestScanStallMostlyHidden(t *testing.T) {
	const n = 200000
	b := buildMeasured(t, Config{Width: 1}, n, 1.0)
	b.Mem().FlushCaches()
	b.Scan(8, 100000)
	sb := b.Mem().Stats()

	pe := buildMeasured(t, Config{Width: 8, Prefetch: true, JumpArray: JumpExternal}, n, 1.0)
	pe.Mem().FlushCaches()
	pe.Scan(8, 100000)
	se := pe.Mem().Stats()

	if float64(se.Stall) > 0.15*float64(sb.Stall) {
		t.Errorf("p8e scan exposes %d stall cycles vs B+ %d: less than 85%% hidden",
			se.Stall, sb.Stall)
	}
	if frac := float64(sb.Stall) / float64(sb.Total()); frac < 0.6 {
		t.Errorf("B+ scan stall fraction %.2f too low (paper: ~0.84)", frac)
	}
}

// The tree rung's own testing.B: the native tree the store's shards
// are made of (eight-line nodes, prefetching, fill 0.8), at 8M keys —
// well past the LLC, like the benchmark ladder's tree_* metrics — so a
// tree change can be timed without the harness:
//
//	go test -run '^$' -bench 'Native(Scan|Insert)' -benchtime 200000x ./internal/core/
const nativeBenchKeys = 8 << 20

// The two trees of the native benchmarks, each bulkloaded on first
// use: fresh, made by New and Bulkload (the shape every native tree
// has: link-free scans, written in place while no older version is
// live), and churned, a lineage of versions with every leaf rewritten
// once in random order, a version each — what the serving tree looks
// like after a while, its leaves wherever the free list put their
// copies.
const (
	benchFresh = iota
	benchChurned
)

var benchTreeNames = [...]string{"fresh", "churned"}

var nativeBench [2]struct {
	once sync.Once
	tr   *Tree
}

func nativeBenchTree(b *testing.B, kind int) *Tree {
	nb := &nativeBench[kind]
	nb.once.Do(func() {
		pairs := sortedPairs(nativeBenchKeys)
		nb.tr = MustNew(Config{Width: 8, Prefetch: true, Mem: memsys.DefaultNative()})
		if err := nb.tr.Bulkload(pairs, 0.8); err != nil {
			b.Fatal(err)
		}
		if kind == benchChurned {
			per := fillCount(nb.tr.LeafCapacity(), 0.8)
			for _, leaf := range rand.New(rand.NewSource(3)).Perm(len(pairs) / per) {
				prev := nb.tr
				nb.tr = prev.Fork()
				nb.tr.Insert(pairs[leaf*per].Key, pairs[leaf*per].TID)
				nb.tr.Release(prev)
			}
		}
	})
	b.ResetTimer()
	return nb.tr
}

// benchNativeScan times rows-row scans from random keys, each a new
// scanner copying pairs into one reused buffer, the way a backend
// snapshot serves Store.Scan: through the bottom non-leaf nodes of a
// fresh tree and of a churned one.
func benchNativeScan(b *testing.B, rows int) {
	for kind, name := range benchTreeNames {
		b.Run(name, func(b *testing.B) {
			r, buf := rand.New(rand.NewSource(1)), make([]Pair, rows)
			tr := nativeBenchTree(b, kind)
			for i := 0; i < b.N; i++ {
				start := Key(8 * (r.Intn(nativeBenchKeys-rows) + 1))
				if got := tr.NewScan(start, MaxKey).NextPairs(buf); got != rows {
					b.Fatalf("scan from %d returned %d rows", start, got)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
		})
	}
}

func BenchmarkNativeScan100(b *testing.B)  { benchNativeScan(b, 100) }
func BenchmarkNativeScan2000(b *testing.B) { benchNativeScan(b, 2000) }

// BenchmarkNativeDescent splits a native descent's cost into
// instruction work and misses: Search and 8-key SearchBatch groups on
// the fresh tree, from a set of 16 keys whose paths stay cached and
// from a set of 64 Ki random keys whose paths mostly miss.
func BenchmarkNativeDescent(b *testing.B) {
	sets := map[string]int{"cached": 16, "random": 64 << 10}
	for _, op := range []string{"search", "batch8"} {
		for _, set := range []string{"cached", "random"} {
			b.Run(op+"/"+set, func(b *testing.B) {
				r := rand.New(rand.NewSource(4))
				keys := make([]Key, sets[set])
				for i := range keys {
					keys[i] = Key(8 * (r.Intn(nativeBenchKeys) + 1))
				}
				tids, found := make([]TID, 8), make([]bool, 8)
				tr := nativeBenchTree(b, benchFresh)
				for i := 0; i < b.N; i++ {
					if op == "search" {
						tr.Search(keys[i%len(keys)])
					} else {
						j := 8 * i % len(keys)
						tr.SearchBatch(keys[j:j+8], tids, found)
					}
				}
			})
		}
	}
}

// BenchmarkNativeInsert times inserts of new random keys (the gaps
// sortedPairs leaves between multiples of eight) into the fresh tree —
// in place, and the way a shard applies a single-put batch: fork,
// insert into the copied path, release the version before. The tree is
// shared with the scan benchmarks, which do not mind the extra keys;
// the forked run leaves its newest version in place of it.
func BenchmarkNativeInsert(b *testing.B) {
	key := func(r *rand.Rand) Key { return Key(8*(r.Intn(nativeBenchKeys)+1) + 1 + r.Intn(7)) }
	b.Run("inplace", func(b *testing.B) {
		r := rand.New(rand.NewSource(2))
		tr := nativeBenchTree(b, benchFresh)
		for i := 0; i < b.N; i++ {
			tr.Insert(key(r), 1)
		}
	})
	b.Run("forked", func(b *testing.B) {
		r := rand.New(rand.NewSource(2))
		tr := nativeBenchTree(b, benchFresh)
		for i := 0; i < b.N; i++ {
			next := tr.Fork()
			next.Insert(key(r), 1)
			next.Release(tr)
			tr = next
		}
		nativeBench[benchFresh].tr = tr
	})
}

// codecBenchPairs is one write-mixed shard: the tree a shard writer
// checkpoints and recovery loads.
const codecBenchPairs = 3_000_000

// BenchmarkTreeWriteTo times a checkpoint's encoding of a forked
// 3M-pair tree to io.Discard, per pair, with its allocations:
//
//	go test -run '^$' -bench 'Tree(WriteTo|Load)' -benchmem ./internal/core/
func BenchmarkTreeWriteTo(b *testing.B) {
	b.Run("3M", func(b *testing.B) {
		tr := forkedLineage(b, codecBenchPairs, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tr.WriteTo(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/codecBenchPairs, "ns/pair")
	})
}

// BenchmarkTreeLoad times recovery's half: decoding the same stream
// and bulkloading a native tree from it at fill 0.8, per pair.
func BenchmarkTreeLoad(b *testing.B) {
	b.Run("3M", func(b *testing.B) {
		var stream bytes.Buffer
		if _, err := forkedLineage(b, codecBenchPairs, 0).WriteTo(&stream); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Load(bytes.NewReader(stream.Bytes()), memsys.DefaultNative(), 0.8); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/codecBenchPairs, "ns/pair")
	})
}
