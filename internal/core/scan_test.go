package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pbtree/internal/memsys"
)

// collectScan drains a scanner with the given buffer size.
func collectScan(s *Scanner, bufSize int) []TID {
	var out []TID
	buf := make([]TID, bufSize)
	for {
		n := s.Next(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

func TestScanFullRange(t *testing.T) {
	for _, v := range testVariants() {
		cfg := v.Config
		t.Run(v.label, func(t *testing.T) {
			tr := newTestTree(t, cfg)
			pairs := sortedPairs(3000)
			if err := tr.Bulkload(pairs, 1.0); err != nil {
				t.Fatal(err)
			}
			got := collectScan(tr.NewScan(0, MaxKey), 256)
			if len(got) != len(pairs) {
				t.Fatalf("scan returned %d pairs, want %d", len(got), len(pairs))
			}
			for i, tid := range got {
				if tid != pairs[i].TID {
					t.Fatalf("pair %d: tid %d, want %d", i, tid, pairs[i].TID)
				}
			}
		})
	}
}

func TestScanSubRange(t *testing.T) {
	for _, v := range testVariants() {
		tr := newTestTree(t, v.Config)
		pairs := sortedPairs(2000)
		if err := tr.Bulkload(pairs, 0.8); err != nil {
			t.Fatal(err)
		}
		// Start and end on existing keys.
		got := collectScan(tr.NewScan(pairs[100].Key, pairs[199].Key), 64)
		if len(got) != 100 {
			t.Fatalf("%s: sub-range returned %d, want 100", tr.Name(), len(got))
		}
		if got[0] != pairs[100].TID || got[99] != pairs[199].TID {
			t.Fatalf("%s: wrong boundary tids", tr.Name())
		}
		// Start and end between keys.
		got = collectScan(tr.NewScan(pairs[100].Key+1, pairs[199].Key+1), 64)
		if len(got) != 99 {
			t.Fatalf("%s: between-keys range returned %d, want 99", tr.Name(), len(got))
		}
		if got[0] != pairs[101].TID {
			t.Fatalf("%s: wrong first tid for between-keys start", tr.Name())
		}
	}
}

func TestScanCountLimited(t *testing.T) {
	tr := newTestTree(t, Config{Width: 8, Prefetch: true, JumpArray: JumpExternal})
	pairs := sortedPairs(5000)
	if err := tr.Bulkload(pairs, 1.0); err != nil {
		t.Fatal(err)
	}
	if n := tr.Scan(pairs[10].Key, 1000); n != 1000 {
		t.Fatalf("Scan returned %d, want 1000", n)
	}
	// Near the end of the index the scan runs out of pairs.
	if n := tr.Scan(pairs[4990].Key, 1000); n != 10 {
		t.Fatalf("Scan at tail returned %d, want 10", n)
	}
}

func TestScanSegmented(t *testing.T) {
	for _, cfg := range []Config{
		{Width: 1},
		{Width: 8, Prefetch: true},
		{Width: 8, Prefetch: true, JumpArray: JumpExternal},
		{Width: 8, Prefetch: true, JumpArray: JumpInternal},
	} {
		tr := newTestTree(t, cfg)
		pairs := sortedPairs(4000)
		if err := tr.Bulkload(pairs, 0.9); err != nil {
			t.Fatal(err)
		}
		s := tr.NewScan(0, MaxKey)
		buf := make([]TID, 137) // deliberately not a multiple of the leaf size
		var got []TID
		calls := 0
		for {
			n := s.Next(buf)
			if n == 0 {
				break
			}
			calls++
			// Every call except the last must fill the buffer.
			got = append(got, buf[:n]...)
		}
		if len(got) != 4000 {
			t.Fatalf("%s: segmented scan got %d pairs", tr.Name(), len(got))
		}
		if calls != (4000+136)/137 {
			t.Fatalf("%s: %d calls", tr.Name(), calls)
		}
		for i, tid := range got {
			if tid != pairs[i].TID {
				t.Fatalf("%s: pair %d wrong", tr.Name(), i)
			}
		}
		// The scan stays exhausted.
		if s.Next(buf) != 0 {
			t.Fatalf("%s: exhausted scanner returned data", tr.Name())
		}
	}
}

func TestScanEmptyAndEdges(t *testing.T) {
	for _, v := range testVariants() {
		tr := newTestTree(t, v.Config)
		// Empty tree.
		if got := collectScan(tr.NewScan(0, MaxKey), 8); len(got) != 0 {
			t.Fatalf("%s: scan of empty tree returned %d", tr.Name(), len(got))
		}
		tr.Insert(100, 1)
		// Start beyond every key.
		if got := collectScan(tr.NewScan(101, MaxKey), 8); len(got) != 0 {
			t.Fatalf("%s: scan past the end returned %d", tr.Name(), len(got))
		}
		// End before start yields nothing.
		if got := collectScan(tr.NewScan(100, 99), 8); len(got) != 0 {
			t.Fatalf("%s: inverted range returned %d", tr.Name(), len(got))
		}
		// Exact single-key range.
		if got := collectScan(tr.NewScan(100, 100), 8); len(got) != 1 || got[0] != 1 {
			t.Fatalf("%s: single-key range returned %v", tr.Name(), got)
		}
		// Zero-length buffer is a no-op.
		if tr.NewScan(0, MaxKey).Next(nil) != 0 {
			t.Fatalf("%s: nil buffer returned data", tr.Name())
		}
	}
}

// TestScanAfterUpdates interleaves updates with scans, so the
// jump-pointer structures are exercised in their updated state.
func TestScanAfterUpdates(t *testing.T) {
	for _, cfg := range []Config{
		{Width: 8, Prefetch: true, JumpArray: JumpExternal},
		{Width: 8, Prefetch: true, JumpArray: JumpInternal},
		{Width: 2, Prefetch: true, JumpArray: JumpExternal, ChunkLines: 1},
	} {
		tr := newTestTree(t, cfg)
		model := map[Key]TID{}
		r := rand.New(rand.NewSource(77))
		pairs := sortedPairs(1500)
		if err := tr.Bulkload(pairs, 1.0); err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			model[p.Key] = p.TID
		}
		for round := 0; round < 10; round++ {
			for i := 0; i < 300; i++ {
				k := Key(r.Intn(16000) + 1)
				if r.Intn(2) == 0 {
					tr.Insert(k, TID(k))
					model[k] = TID(k)
				} else {
					tr.Delete(k)
					delete(model, k)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("%s round %d: %v", tr.Name(), round, err)
			}
			got := collectScan(tr.NewScan(0, MaxKey), 97)
			if len(got) != len(model) {
				t.Fatalf("%s round %d: scan %d pairs, model %d", tr.Name(), round, len(got), len(model))
			}
		}
	}
}

// TestQuickScanMatchesModel: scans over random trees and random ranges
// agree with a sorted-model computation.
func TestQuickScanMatchesModel(t *testing.T) {
	cfg := Config{Width: 8, Prefetch: true, JumpArray: JumpExternal}
	f := func(raw []uint16, lo, hi uint16) bool {
		tr := newTestTree(t, cfg)
		model := map[Key]TID{}
		for _, v := range raw {
			k := Key(v%4096) + 1
			tr.Insert(k, TID(k))
			model[k] = TID(k)
		}
		start, end := Key(lo%5000), Key(hi%5000)
		want := 0
		for k := range model {
			if k >= start && k <= end {
				want++
			}
		}
		got := collectScan(tr.NewScan(start, end), 50)
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestScanPrefetchDistances checks correctness is independent of k and
// chunk size (the Figure 16(c,d) parameter space).
func TestScanPrefetchDistances(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 8, 16, 32} {
		for _, c := range []int{1, 2, 8, 32} {
			cfg := Config{Width: 8, Prefetch: true, JumpArray: JumpExternal,
				PrefetchDist: k, ChunkLines: c}
			tr := newTestTree(t, cfg)
			pairs := sortedPairs(2000)
			if err := tr.Bulkload(pairs, 1.0); err != nil {
				t.Fatal(err)
			}
			got := collectScan(tr.NewScan(0, MaxKey), 333)
			if len(got) != len(pairs) {
				t.Fatalf("k=%d c=%d: got %d pairs", k, c, len(got))
			}
		}
		cfg := Config{Width: 8, Prefetch: true, JumpArray: JumpInternal, PrefetchDist: k}
		tr := newTestTree(t, cfg)
		pairs := sortedPairs(2000)
		if err := tr.Bulkload(pairs, 1.0); err != nil {
			t.Fatal(err)
		}
		if got := collectScan(tr.NewScan(0, MaxKey), 333); len(got) != len(pairs) {
			t.Fatalf("internal k=%d: got %d pairs", k, len(got))
		}
	}
}

// TestNextPairsMatchesNext checks that the pair-returning scan yields
// exactly the keys and tupleIDs the tid-returning scan yields.
func TestNextPairsMatchesNext(t *testing.T) {
	for _, v := range testVariants() {
		tr := newTestTree(t, v.Config)
		pairs := sortedPairs(2500)
		if err := tr.Bulkload(pairs, 0.8); err != nil {
			t.Fatal(err)
		}
		start, end := pairs[37].Key, pairs[2100].Key
		wantTIDs := collectScan(tr.NewScan(start, end), 64)

		var got []Pair
		s := tr.NewScan(start, end)
		buf := make([]Pair, 64)
		for {
			n := s.NextPairs(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if len(got) != len(wantTIDs) {
			t.Fatalf("%s: NextPairs returned %d, Next returned %d", tr.Name(), len(got), len(wantTIDs))
		}
		for i, p := range got {
			if p.TID != wantTIDs[i] {
				t.Fatalf("%s: pair %d: tid %d, want %d", tr.Name(), i, p.TID, wantTIDs[i])
			}
			if i > 0 && p.Key <= got[i-1].Key {
				t.Fatalf("%s: pair keys not strictly increasing at %d", tr.Name(), i)
			}
		}
	}
}

// TestLeafRunTable drives the copy loop's one per-leaf step through
// every way a run can end: start position in the leaf x buffer size
// (one row, the rest of the leaf exactly, one more, three leaves) x
// end key (inside the leaf, the leaf's last key, between two leaves,
// MaxKey), for Next and NextPairs, on both models: the linked
// simulated tree of each layout against the link-free native one.
// Native rows = simulated rows = the slice of the sorted input;
// resumed calls concatenate to it; the two scanners agree on done
// after every call.
func TestLeafRunTable(t *testing.T) {
	for i, layout := range []Config{
		{Width: 2, Prefetch: true},
		{Width: 2, Prefetch: true},
		{Width: 2, Prefetch: true, JumpArray: JumpExternal, ChunkLines: 1},
		{Width: 2, Prefetch: true, JumpArray: JumpInternal},
	} {
		sim, nat := layout, layout
		sim.Mem, nat.Mem, nat.JumpArray = memsys.Default(), memsys.DefaultNative(), JumpNone
		st, nt := newTestTree(t, sim), newTestTree(t, nat)
		per := st.LeafCapacity()
		pairs := sortedPairs(8 * per) // fill 1: leaf i is pairs[i*per : (i+1)*per]
		for _, tr := range []*Tree{st, nt} {
			if err := tr.Bulkload(pairs, 1.0); err != nil {
				t.Fatal(err)
			}
		}
		const leaf = 2
		if i == 0 {
			// The first layout's native tree is a forked version, its
			// predecessor still live, so the leaf the runs start in and
			// the one after it are copies.
			nt = nt.Fork()
			nt.Insert(pairs[leaf*per].Key, pairs[leaf*per].TID)
			nt.Insert(pairs[(leaf+1)*per].Key, pairs[(leaf+1)*per].TID)
		}
		last := (leaf+1)*per - 1 // index of the leaf's last pair
		for _, pos := range []int{0, 1, per / 2, per - 1} {
			from := leaf*per + pos
			rest := per - pos
			ends := map[string]Key{
				"inside the leaf":     pairs[(from+last)/2].Key,
				"the leaf's last key": pairs[last].Key,
				"between two leaves":  pairs[last].Key + 1,
				"MaxKey":              MaxKey,
			}
			for endName, end := range ends {
				to := len(pairs) // index one past the last qualifying pair
				if end != MaxKey {
					to = int(end) / 8 // keys are 8*(i+1): pairs[:end/8] are <= end
				}
				want := pairs[from:to]
				for _, size := range []int{1, rest, rest + 1, 3 * per} {
					name := fmt.Sprintf("%s pos %d end %s buf %d", st.Name(), pos, endName, size)

					ss, ns := st.NewScan(pairs[from].Key, end), nt.NewScan(pairs[from].Key, end)
					sbuf, nbuf := make([]TID, size), make([]TID, size)
					var got []TID
					for call := 0; ; call++ {
						sn, nn := ss.Next(sbuf), ns.Next(nbuf)
						if sn != nn || !slices.Equal(sbuf[:sn], nbuf[:nn]) {
							t.Fatalf("%s: Next call %d: simulated %v, native %v", name, call, sbuf[:sn], nbuf[:nn])
						}
						if ss.done != ns.done {
							t.Fatalf("%s: Next call %d: simulated done %v, native done %v", name, call, ss.done, ns.done)
						}
						if call == 0 && size == rest && to > last {
							// A buffer filled exactly at the leaf's last key
							// has looked at the next leaf before returning.
							if wantDone := to == last+1; ss.done != wantDone {
								t.Fatalf("%s: done %v after a full buffer at the leaf's last key, want %v", name, ss.done, wantDone)
							}
						}
						if sn == 0 {
							break
						}
						got = append(got, sbuf[:sn]...)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: Next returned %d rows, want %d", name, len(got), len(want))
					}
					for i, tid := range got {
						if tid != want[i].TID {
							t.Fatalf("%s: Next row %d is tid %d, want %d", name, i, tid, want[i].TID)
						}
					}

					ss, ns = st.NewScan(pairs[from].Key, end), nt.NewScan(pairs[from].Key, end)
					spb, npb := make([]Pair, size), make([]Pair, size)
					var gotPairs []Pair
					for call := 0; ; call++ {
						sn, nn := ss.NextPairs(spb), ns.NextPairs(npb)
						if sn != nn || !slices.Equal(spb[:sn], npb[:nn]) || ss.done != ns.done {
							t.Fatalf("%s: NextPairs call %d: simulated %v done %v, native %v done %v", name, call, spb[:sn], ss.done, npb[:nn], ns.done)
						}
						if sn == 0 {
							break
						}
						gotPairs = append(gotPairs, spb[:sn]...)
					}
					if !slices.Equal(gotPairs, want) {
						t.Fatalf("%s: NextPairs returned %d rows, want %d (first %v)", name, len(gotPairs), len(want), gotPairs[:min(3, len(gotPairs))])
					}
				}
			}
		}
	}
}

// TestOpenScansMatchesNewScan: one group open over native trees of
// unequal height — empty, a single leaf, three and four levels — gives
// every member, drained in chunks of any size, exactly the rows its own
// NewScan does, and Done says when none are left; on fresh, forked and
// churned trees.
func TestOpenScansMatchesNewScan(t *testing.T) {
	const top = 300_000
	r := rand.New(rand.NewSource(29))
	sets := map[string][]*Tree{}
	for _, n := range []int{0, 20, 3_000, top} {
		tr := newTestTree(t, Config{Width: 8, Prefetch: true, Mem: memsys.DefaultNative()})
		if err := tr.Bulkload(sortedPairs(n), 0.8); err != nil {
			t.Fatal(err)
		}
		forked := tr.Fork()
		churned := forked.Fork()
		for i := 0; i < n/8+40; i++ {
			if k := Key(r.Intn(8*n + 64)); r.Intn(3) == 0 {
				churned.Delete(k)
			} else {
				churned.Insert(k, TID(k))
			}
		}
		// shrunk has lost a level where churned has one to lose: keys
		// are deleted from the left until its root collapses.
		shrunk := churned.Fork()
		for k := Key(0); n >= 3_000 && shrunk.Height() >= churned.Height(); k++ {
			if k > Key(8*n+64) {
				t.Fatalf("%d keys: deleting every key left the tree %d levels high", n, shrunk.Height())
			}
			shrunk.Delete(k)
		}
		sets["fresh"] = append(sets["fresh"], tr)
		sets["forked"] = append(sets["forked"], forked)
		sets["churned"] = append(sets["churned"], churned)
		sets["shrunk"] = append(sets["shrunk"], shrunk)
	}
	drain := func(s *Scanner, chunk int) (rows []Pair) {
		buf := make([]Pair, chunk)
		for !s.Done() {
			n := s.NextPairs(buf)
			if n == 0 {
				break
			}
			rows = append(rows, buf[:n]...)
		}
		if n := s.NextPairs(buf); n != 0 {
			t.Fatalf("a scan that says it is done returned %d more rows", n)
		}
		return rows
	}
	for name, ts := range sets {
		ss := make([]Scanner, len(ts))
		for trial := 0; trial < 30; trial++ {
			start := Key(r.Intn(8*top + 64))
			end := start + Key(r.Intn(4000))
			switch trial % 3 {
			case 0:
				end = MaxKey
			case 1:
				start, end = end+1, start
			}
			OpenScans(ss, ts, start, end)
			for i, tr := range ts {
				want := drain(tr.NewScan(start, end), 1<<16)
				if got := drain(&ss[i], 1+r.Intn(300)); !slices.Equal(got, want) {
					t.Fatalf("%s tree %d (height %d), [%d, %d]: the group open scanned %d rows, NewScan %d",
						name, i, tr.Height(), start, end, len(got), len(want))
				}
			}
		}
	}
}

// TestNativeScanLeavesSpaceUsedAlone: only a simulated scanner
// reserves a return-buffer region from the tree's address space. A
// native scan reads a tree and writes nothing — SpaceUsed stays the
// real byte count and concurrent scans share no written line.
func TestNativeScanLeavesSpaceUsedAlone(t *testing.T) {
	pairs := sortedPairs(100_000)
	for _, mem := range []memsys.Model{memsys.DefaultNative(), memsys.Default()} {
		tr := newTestTree(t, Config{Width: 8, Prefetch: true, Mem: mem})
		if err := tr.Bulkload(pairs, 0.8); err != nil {
			t.Fatal(err)
		}
		before := tr.SpaceUsed()
		tids, prs := make([]TID, 100), make([]Pair, 100)
		for i := 0; i < 1000; i++ {
			start := pairs[(i*97)%(len(pairs)-100)].Key
			if n := tr.NewScan(start, MaxKey).Next(tids); n != 100 {
				t.Fatalf("Next returned %d rows", n)
			}
			if n := tr.NewScan(start, MaxKey).NextPairs(prs); n != 100 {
				t.Fatalf("NextPairs returned %d rows", n)
			}
		}
		after := tr.SpaceUsed()
		if native := tr.sim == nil; native && after != before {
			t.Errorf("2000 native scans grew SpaceUsed from %d to %d", before, after)
		} else if !native && after == before {
			t.Errorf("simulated scans reserved no return-buffer region (SpaceUsed %d)", before)
		}
	}
}

// TestNativeTreeKeepsNoLinks: however a native tree is made — New and
// inserts, Bulkload, Load, CloneFrozen — no leaf holds a sibling link
// and a scan goes down through the bottom non-leaf nodes, as a
// simulated tree's never does.
func TestNativeTreeKeepsNoLinks(t *testing.T) {
	built := MustNew(Config{Width: 2, Prefetch: true, Mem: memsys.DefaultNative()})
	for _, p := range sortedPairs(2000) {
		built.Insert(p.Key, p.TID)
	}
	bulk := MustNew(Config{Width: 2, Prefetch: true, Mem: memsys.DefaultNative()})
	if err := bulk.Bulkload(sortedPairs(2000), 0.8); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if _, err := bulk.WriteTo(&stream); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&stream, memsys.DefaultNative(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := built.CloneFrozen(0.8)
	if err != nil {
		t.Fatal(err)
	}
	sim := newTestTree(t, Config{Width: 2, Prefetch: true})
	if err := sim.Bulkload(sortedPairs(2000), 0.8); err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*Tree{"New+Insert": built, "Bulkload": bulk, "Load": loaded, "CloneFrozen": clone, "simulated": sim} {
		links := 0
		tr.eachLeaf(tr.root, func(leaf node) bool {
			if tr.next(leaf) != 0 {
				links++
			}
			return true
		})
		s := tr.NewScan(0, MaxKey)
		native := tr.sim == nil
		if native && (links != 0 || len(s.up) != tr.Height()-1) || !native && (links == 0 || len(s.up) != 0) {
			t.Errorf("%s (height %d): %d leaves linked, the scan recorded %d levels", name, tr.Height(), links, len(s.up))
		}
		if got := collectScan(s, 64); len(got) != tr.Len() {
			t.Errorf("%s: a full scan returned %d of %d rows", name, len(got), tr.Len())
		}
	}
}
