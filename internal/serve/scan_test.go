package serve

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pbtree/internal/core"
	"pbtree/internal/lsm"
	"pbtree/internal/workload"
)

// FuzzStoreScan holds the one scan path to a sorted model: a store of
// one to eight shards on either engine, bulkloaded and then written
// with puts and deletes, answers Store.Scan and a cursor drained in
// chunks with exactly the model's rows, over the range the input names
// and a few more drawn from its seed (MaxKey and start > end among
// them). skew 1 and 2 put the bulkload in shard 0 alone — three levels
// of a p8B+-Tree — and leave shard 1 empty (1) or a single leaf (2).
func FuzzStoreScan(f *testing.F) {
	for _, shards := range []uint8{1, 2, 3, 8} {
		for _, onLSM := range []bool{false, true} {
			for skew := uint8(0); skew < 3; skew++ {
				f.Add(int64(shards)*3+int64(skew), shards, onLSM, skew, uint32(0), uint32(math.MaxUint32), uint16(100), uint16(37))
			}
		}
	}
	f.Add(int64(7), uint8(2), false, uint8(0), uint32(8000), uint32(800), uint16(10), uint16(3))
	f.Fuzz(func(t *testing.T, seed int64, shards uint8, onLSM bool, skew uint8, start, end uint32, limit, chunk uint16) {
		n, skew := (int(shards)+7)%8+1, skew%3
		r := rand.New(rand.NewSource(seed))
		route := &Store{shards: make([]*shard, n)} // ShardOf reads only the shard count
		keep := func(k core.Key, one int) bool {
			switch s := route.ShardOf(k); {
			case skew == 0 || s == 0:
				return true
			default:
				return skew == 2 && s == 1 && one < 10
			}
		}
		var pairs []core.Pair
		for k, one := core.Key(8), 0; len(pairs) < 6000 && k < 8*200_000; k += 8 {
			if keep(k, one) {
				if route.ShardOf(k) == 1 && n > 1 {
					one++
				}
				pairs = append(pairs, core.Pair{Key: k, TID: core.TID(k / 8)})
			}
		}
		cfg := StoreConfig{Shards: n, LSM: lsm.Config{FlushKeys: 64, MaxRuns: 3}}
		if onLSM {
			cfg.Backend = BackendLSM
		}
		st, err := Open(cfg, pairs)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if shape := st.Stats().Shards; !onLSM && skew > 0 && n > 1 && (shape[0].Height != 3 || shape[1].Height != 1) {
			t.Fatalf("skew %d built shard 0 of height %d and shard 1 of height %d, want 3 and 1", skew, shape[0].Height, shape[1].Height)
		}
		model := map[core.Key]core.TID{}
		for _, p := range pairs {
			model[p.Key] = p.TID
		}
		top := int(pairs[len(pairs)-1].Key) + 64
		for i := 0; i < 200; i++ {
			k := core.Key(4 * (1 + r.Intn(top/4)))
			if !keep(k, 10) {
				continue
			}
			if r.Intn(4) == 0 {
				if err := st.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(model, k)
			} else {
				if err := st.Put(k, core.TID(i)); err != nil {
					t.Fatal(err)
				}
				model[k] = core.TID(i)
			}
		}
		keys := make([]core.Key, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		slices.Sort(keys)

		check := func(start, end core.Key, limit, chunk int) {
			var want []core.Pair
			for i, _ := slices.BinarySearch(keys, start); i < len(keys) && keys[i] <= end; i++ {
				want = append(want, core.Pair{Key: keys[i], TID: model[keys[i]]})
			}
			got := st.Scan(start, end, limit)
			if w := want[:min(max(limit, 0), len(want))]; !slices.Equal(got, w) {
				t.Fatalf("%d shards, skew %d: Scan(%d, %d, %d) = %d rows, model %d", n, skew, start, end, limit, len(got), len(w))
			}
			c, err := st.OpenCursor(start, end)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var stream []core.Pair
			for done := false; !done; {
				var rows []core.Pair
				rows, done = c.Next(chunk)
				if len(rows) == 0 && !done {
					t.Fatalf("%d shards, skew %d: an empty chunk that is not the last, after %d rows of %d", n, skew, len(stream), len(want))
				}
				if stream = append(stream, rows...); len(stream) > len(want) {
					break
				}
			}
			if !slices.Equal(stream, want) {
				t.Fatalf("%d shards, skew %d: cursor over [%d, %d] in chunks of %d = %d rows, model %d", n, skew, start, end, chunk, len(stream), len(want))
			}
		}
		check(core.Key(start), core.Key(end), int(limit), 1+int(chunk)%2048)
		for i := 0; i < 6; i++ {
			a, b := core.Key(r.Intn(top)), core.Key(r.Intn(top))
			switch i {
			case 0:
				b = core.MaxKey
			case 1:
				a, b = max(a, b)+1, min(a, b)
			case 2:
				b = a + core.Key(r.Intn(800))
			}
			check(a, b, r.Intn(3000), 1+r.Intn(700))
		}
	})
}

// TestStoreScanAllocates: a 100-row Store.Scan on the pbtree engine
// allocates its result and nothing else — the cursor, its buffers and
// the shards' scanners are the store's spare, opened in place — and a
// streaming cursor's Next allocates the chunk it returns.
func TestStoreScanAllocates(t *testing.T) {
	const n = 100_000
	st := openTest(t, n, 2)
	r := rand.New(rand.NewSource(1))
	st.Scan(8, core.MaxKey, 100) // makes the spare
	if a := testing.AllocsPerRun(200, func() {
		if rows := st.Scan(workload.ExistingKey(r, n/2), core.MaxKey, 100); len(rows) != 100 {
			t.Fatalf("Scan returned %d rows", len(rows))
		}
	}); a > 1 {
		t.Errorf("a 100-row Store.Scan allocates %v times, want 1 (the result)", a)
	}
	c, err := st.OpenCursor(8, core.MaxKey)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if a := testing.AllocsPerRun(200, func() {
		if rows, done := c.Next(256); len(rows) != 256 || done {
			t.Fatalf("Next returned %d rows, done %v", len(rows), done)
		}
	}); a > 1 {
		t.Errorf("StoreCursor.Next allocates %v times a chunk, want 1 (the chunk)", a)
	}
}
