package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// sortedPairs returns n pairs with keys 8, 16, 24, ... so tests can
// probe between-key values.
func sortedPairs(n int) []Pair {
	ps := make([]Pair, n)
	for i := range ps {
		ps[i] = Pair{Key: Key(8 * (i + 1)), TID: TID(i + 1)}
	}
	return ps
}

// shuffledKeys returns the keys of ps in random order.
func shuffledKeys(r *rand.Rand, ps []Pair) []Key {
	keys := make([]Key, len(ps))
	for i, p := range ps {
		keys[i] = p.Key
	}
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

func TestBulkloadAndSearch(t *testing.T) {
	for _, v := range testVariants() {
		cfg := v.Config
		t.Run(v.label, func(t *testing.T) {
			tr := newTestTree(t, cfg)
			pairs := sortedPairs(5000)
			if err := tr.Bulkload(pairs, 1.0); err != nil {
				t.Fatal(err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if tr.Len() != len(pairs) {
				t.Fatalf("Len = %d, want %d", tr.Len(), len(pairs))
			}
			for _, p := range pairs {
				tid, ok := tr.Search(p.Key)
				if !ok || tid != p.TID {
					t.Fatalf("Search(%d) = %d,%v, want %d", p.Key, tid, ok, p.TID)
				}
			}
			// Absent keys: below, between, above.
			for _, k := range []Key{0, 7, 12, 8*5000 + 1, MaxKey} {
				if _, ok := tr.Search(k); ok {
					t.Fatalf("Search(%d) found a phantom key", k)
				}
			}
		})
	}
}

func TestBulkloadFillFactors(t *testing.T) {
	for _, fill := range []float64{0.6, 0.7, 0.8, 0.9, 1.0} {
		for _, cfg := range []Config{{Width: 1}, {Width: 8, Prefetch: true, JumpArray: JumpExternal}} {
			tr := newTestTree(t, cfg)
			pairs := sortedPairs(3000)
			if err := tr.Bulkload(pairs, fill); err != nil {
				t.Fatal(err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("%s fill %v: %v", tr.Name(), fill, err)
			}
			want := fillCount(tr.LeafCapacity(), fill)
			// All leaves except the last hold exactly the fill count.
			ls := leafViews(tr)
			for _, n := range ls[:len(ls)-1] {
				if n.count() != want {
					t.Fatalf("%s fill %v: leaf has %d keys, want %d", tr.Name(), fill, n.count(), want)
				}
			}
			for _, p := range pairs {
				if _, ok := tr.Search(p.Key); !ok {
					t.Fatalf("%s fill %v: key %d lost", tr.Name(), fill, p.Key)
				}
			}
		}
	}
}

func TestBulkloadRejectsBadInput(t *testing.T) {
	tr := newTestTree(t, Config{Width: 1})
	if err := tr.Bulkload(sortedPairs(10), 0); err == nil {
		t.Error("fill 0 accepted")
	}
	if err := tr.Bulkload(sortedPairs(10), 1.5); err == nil {
		t.Error("fill > 1 accepted")
	}
	dup := []Pair{{Key: 5}, {Key: 5}}
	if err := tr.Bulkload(dup, 1); err == nil {
		t.Error("duplicate keys accepted")
	}
	unsorted := []Pair{{Key: 9}, {Key: 5}}
	if err := tr.Bulkload(unsorted, 1); err == nil {
		t.Error("unsorted keys accepted")
	}
}

func TestBulkloadEmpty(t *testing.T) {
	for _, v := range testVariants() {
		tr := newTestTree(t, v.Config)
		if err := tr.Bulkload(nil, 1.0); err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		if tr.Len() != 0 || tr.Height() != 1 {
			t.Fatalf("%s: empty tree Len=%d Height=%d", tr.Name(), tr.Len(), tr.Height())
		}
		if _, ok := tr.Search(1); ok {
			t.Fatalf("%s: found key in empty tree", tr.Name())
		}
	}
}

func TestInsertFromEmpty(t *testing.T) {
	for _, v := range testVariants() {
		cfg := v.Config
		t.Run(v.label, func(t *testing.T) {
			tr := newTestTree(t, cfg)
			r := rand.New(rand.NewSource(42))
			pairs := sortedPairs(3000)
			for _, k := range shuffledKeys(r, pairs) {
				if !tr.Insert(k, TID(k)) {
					t.Fatalf("Insert(%d) reported duplicate", k)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if tr.Len() != len(pairs) {
				t.Fatalf("Len = %d, want %d", tr.Len(), len(pairs))
			}
			for _, p := range pairs {
				tid, ok := tr.Search(p.Key)
				if !ok || tid != TID(p.Key) {
					t.Fatalf("Search(%d) = %d,%v", p.Key, tid, ok)
				}
			}
		})
	}
}

func TestInsertDuplicateUpdates(t *testing.T) {
	tr := newTestTree(t, Config{Width: 8, Prefetch: true})
	if !tr.Insert(10, 1) {
		t.Fatal("first insert should report new")
	}
	if tr.Insert(10, 2) {
		t.Fatal("second insert should report existing")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	tid, _ := tr.Search(10)
	if tid != 2 {
		t.Fatalf("tid = %d, want 2 (updated)", tid)
	}
}

func TestInsertIntoBulkloaded(t *testing.T) {
	for _, v := range testVariants() {
		cfg := v.Config
		t.Run(v.label, func(t *testing.T) {
			tr := newTestTree(t, cfg)
			pairs := sortedPairs(2000)
			if err := tr.Bulkload(pairs, 1.0); err != nil {
				t.Fatal(err)
			}
			// Insert keys that land between existing ones, forcing
			// splits of 100%-full nodes.
			r := rand.New(rand.NewSource(7))
			var extra []Key
			for i := 0; i < 1000; i++ {
				extra = append(extra, Key(8*(r.Intn(2000)+1)+1+r.Intn(7)))
			}
			for _, k := range extra {
				tr.Insert(k, TID(k))
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				if _, ok := tr.Search(p.Key); !ok {
					t.Fatalf("bulkloaded key %d lost", p.Key)
				}
			}
			for _, k := range extra {
				if _, ok := tr.Search(k); !ok {
					t.Fatalf("inserted key %d lost", k)
				}
			}
		})
	}
}

func TestDeleteBasic(t *testing.T) {
	for _, v := range testVariants() {
		cfg := v.Config
		t.Run(v.label, func(t *testing.T) {
			tr := newTestTree(t, cfg)
			pairs := sortedPairs(2000)
			if err := tr.Bulkload(pairs, 0.8); err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(99))
			keys := shuffledKeys(r, pairs)
			for i, k := range keys {
				if !tr.Delete(k) {
					t.Fatalf("Delete(%d) not found", k)
				}
				if tr.Delete(k) {
					t.Fatalf("Delete(%d) twice succeeded", k)
				}
				if i%257 == 0 {
					if err := tr.CheckInvariants(); err != nil {
						t.Fatalf("after %d deletes: %v", i+1, err)
					}
				}
			}
			if tr.Len() != 0 {
				t.Fatalf("Len = %d after deleting everything", tr.Len())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if _, ok := tr.Search(pairs[0].Key); ok {
				t.Fatal("found key in emptied tree")
			}
		})
	}
}

func TestDeleteAbsent(t *testing.T) {
	tr := newTestTree(t, Config{Width: 1})
	if tr.Delete(42) {
		t.Fatal("deleting from empty tree succeeded")
	}
	tr.Insert(10, 1)
	if tr.Delete(11) {
		t.Fatal("deleting absent key succeeded")
	}
	if tr.Len() != 1 {
		t.Fatal("absent delete changed Len")
	}
}

// TestMixedOperationsAgainstModel drives every variant with a random
// mix of inserts, deletes and searches and compares against a map.
func TestMixedOperationsAgainstModel(t *testing.T) {
	for _, v := range testVariants() {
		cfg := v.Config
		t.Run(v.label, func(t *testing.T) {
			tr := newTestTree(t, cfg)
			model := map[Key]TID{}
			r := rand.New(rand.NewSource(1234))
			const keyRange = 5000
			for i := 0; i < 20000; i++ {
				k := Key(r.Intn(keyRange) + 1)
				switch r.Intn(4) {
				case 0, 1: // insert
					tid := TID(r.Uint32())
					_, existed := model[k]
					if tr.Insert(k, tid) == existed {
						t.Fatalf("op %d: Insert(%d) new/existing mismatch", i, k)
					}
					model[k] = tid
				case 2: // delete
					_, existed := model[k]
					if tr.Delete(k) != existed {
						t.Fatalf("op %d: Delete(%d) mismatch", i, k)
					}
					delete(model, k)
				case 3: // search
					tid, ok := tr.Search(k)
					wtid, wok := model[k]
					if ok != wok || (ok && tid != wtid) {
						t.Fatalf("op %d: Search(%d) = %d,%v want %d,%v", i, k, tid, ok, wtid, wok)
					}
				}
				if i%2500 == 0 {
					if err := tr.CheckInvariants(); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					if tr.Len() != len(model) {
						t.Fatalf("op %d: Len=%d model=%d", i, tr.Len(), len(model))
					}
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestInsertDeleteChurn empties and refills the tree repeatedly,
// exercising root collapse and regrowth.
func TestInsertDeleteChurn(t *testing.T) {
	for _, cfg := range []Config{
		{Width: 1},
		{Width: 8, Prefetch: true, JumpArray: JumpExternal},
		{Width: 8, Prefetch: true, JumpArray: JumpInternal},
	} {
		tr := newTestTree(t, cfg)
		r := rand.New(rand.NewSource(5))
		for round := 0; round < 5; round++ {
			n := 200 + r.Intn(800)
			keys := make([]Key, n)
			for i := range keys {
				keys[i] = Key(i*8 + 8)
			}
			r.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			for _, k := range keys {
				tr.Insert(k, TID(k))
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("%s round %d after inserts: %v", tr.Name(), round, err)
			}
			r.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			for _, k := range keys {
				if !tr.Delete(k) {
					t.Fatalf("%s round %d: Delete(%d) failed", tr.Name(), round, k)
				}
			}
			if tr.Len() != 0 {
				t.Fatalf("%s round %d: Len=%d", tr.Name(), round, tr.Len())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("%s round %d after deletes: %v", tr.Name(), round, err)
			}
		}
	}
}

// TestQuickInsertSearchDelete is a property test: for arbitrary key
// multisets, inserting then deleting restores emptiness and searches
// agree with membership.
func TestQuickInsertSearchDelete(t *testing.T) {
	cfgs := []Config{
		{Width: 1},
		{Width: 8, Prefetch: true, JumpArray: JumpExternal},
		{Width: 4, Prefetch: true, JumpArray: JumpInternal},
	}
	for _, cfg := range cfgs {
		cfg := cfg
		f := func(raw []uint16) bool {
			tr := newTestTree(t, cfg)
			model := map[Key]TID{}
			for _, v := range raw {
				k := Key(v%2048) + 1
				tr.Insert(k, TID(v))
				model[k] = TID(v)
			}
			if tr.Len() != len(model) {
				return false
			}
			for k, want := range model {
				got, ok := tr.Search(k)
				if !ok || got != want {
					return false
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				return false
			}
			for k := range model {
				if !tr.Delete(k) {
					return false
				}
			}
			return tr.Len() == 0 && tr.CheckInvariants() == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%s: %v", cfg.name(), err)
		}
	}
}

// TestQuickBulkloadEqualsInserts: bulkloading a random key set yields
// the same contents as inserting it.
func TestQuickBulkloadEqualsInserts(t *testing.T) {
	f := func(raw []uint16, fillRaw uint8) bool {
		fill := 0.5 + float64(fillRaw%51)/100.0 // 0.5 .. 1.0
		set := map[Key]bool{}
		for _, v := range raw {
			set[Key(v)+1] = true
		}
		keys := make([]Key, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		pairs := make([]Pair, len(keys))
		for i, k := range keys {
			pairs[i] = Pair{Key: k, TID: TID(k)}
		}

		bl := newTestTree(t, Config{Width: 8, Prefetch: true, JumpArray: JumpExternal})
		if err := bl.Bulkload(pairs, fill); err != nil {
			return false
		}
		ins := newTestTree(t, Config{Width: 8, Prefetch: true, JumpArray: JumpExternal})
		for _, p := range pairs {
			ins.Insert(p.Key, p.TID)
		}
		if bl.Len() != ins.Len() {
			return false
		}
		for _, p := range pairs {
			a, aok := bl.Search(p.Key)
			b, bok := ins.Search(p.Key)
			if !aok || !bok || a != b {
				return false
			}
		}
		return bl.CheckInvariants() == nil && ins.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateStatsCounters(t *testing.T) {
	tr := newTestTree(t, Config{Width: 1})
	pairs := sortedPairs(1000)
	if err := tr.Bulkload(pairs, 1.0); err != nil {
		t.Fatal(err)
	}
	tr.ResetUpdateStats()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		tr.Insert(Key(8*(r.Intn(1000)+1)+1+r.Intn(7)), 1)
	}
	st := tr.UpdateStats()
	if st.Inserts == 0 || st.LeafSplits == 0 {
		t.Fatalf("expected splits on a 100%%-full tree: %+v", st)
	}
	if st.InsertsWithSplit > st.Inserts {
		t.Fatalf("more splitting inserts than inserts: %+v", st)
	}
	if st.InsertsWithNLSplit > st.InsertsWithSplit {
		t.Fatalf("non-leaf split inserts exceed splitting inserts: %+v", st)
	}
}

func TestHeightGrowsAndShrinks(t *testing.T) {
	tr := newTestTree(t, Config{Width: 1})
	if tr.Height() != 1 {
		t.Fatal("empty tree height should be 1")
	}
	for i := 1; i <= 100; i++ {
		tr.Insert(Key(i), TID(i))
	}
	h := tr.Height()
	if h < 3 {
		t.Fatalf("height = %d after 100 inserts into 7-key leaves", h)
	}
	for i := 1; i <= 100; i++ {
		tr.Delete(Key(i))
	}
	if tr.Height() != 1 {
		t.Fatalf("height = %d after deleting everything, want 1", tr.Height())
	}
}
