package serve

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pbtree/internal/backend"
	"pbtree/internal/core"
	"pbtree/internal/memsys"
	"pbtree/internal/workload"
)

// openTest builds a small store over SortedPairs(n) and waits until it
// serves.
func openTest(t *testing.T, n, shards int) *Store {
	t.Helper()
	st, err := Open(StoreConfig{Shards: shards}, workload.SortedPairs(n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	if err := st.WaitReady(); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreGetMGetScan(t *testing.T) {
	const n = 10_000
	st := openTest(t, n, 4)
	if st.Len() != n {
		t.Fatalf("Len = %d, want %d", st.Len(), n)
	}
	r := rand.New(rand.NewSource(1))
	// Point lookups agree with the generator invariant TID = key/8.
	for i := 0; i < 1000; i++ {
		k := workload.ExistingKey(r, n)
		tid, ok := st.Get(k)
		if !ok || uint32(tid) != uint32(k)/8 {
			t.Fatalf("Get(%d) = (%d, %v)", k, tid, ok)
		}
	}
	if _, ok := st.Get(3); ok { // keys are multiples of 8
		t.Fatal("Get(3) found a key that does not exist")
	}
	// MGet agrees with Get, including misses.
	keys := make([]core.Key, 64)
	for i := range keys {
		if i%7 == 0 {
			keys[i] = core.Key(8*n + 8 + 8*i) // beyond the loaded range
		} else {
			keys[i] = workload.ExistingKey(r, n)
		}
	}
	out := make([]Lookup, len(keys))
	st.MGet(keys, out)
	for i, k := range keys {
		tid, ok := st.Get(k)
		if out[i].Found != ok || out[i].TID != tid {
			t.Fatalf("MGet[%d] key %d = %+v, Get = (%d, %v)", i, k, out[i], tid, ok)
		}
	}
	// Scan merges shards back into global key order.
	got := st.Scan(8*100, 8*200, 1000)
	if len(got) != 101 {
		t.Fatalf("Scan returned %d pairs, want 101", len(got))
	}
	for i, p := range got {
		if p.Key != core.Key(8*(100+i)) {
			t.Fatalf("Scan[%d] = key %d, want %d", i, p.Key, 8*(100+i))
		}
	}
	if got := st.Scan(8*100, 8*200, 7); len(got) != 7 {
		t.Fatalf("limited Scan returned %d pairs, want 7", len(got))
	}
}

func TestStoreWrites(t *testing.T) {
	const n = 2000
	st := openTest(t, n, 3)
	// Put a new key, overwrite an old one, delete another.
	if err := st.Put(core.Key(8*n+8), 4242); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(8, 99); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(16); err != nil {
		t.Fatal(err)
	}
	if tid, ok := st.Get(core.Key(8*n + 8)); !ok || tid != 4242 {
		t.Fatalf("inserted key = (%d, %v)", tid, ok)
	}
	if tid, ok := st.Get(8); !ok || tid != 99 {
		t.Fatalf("overwritten key = (%d, %v)", tid, ok)
	}
	if _, ok := st.Get(16); ok {
		t.Fatal("deleted key still found")
	}
	if st.Len() != n {
		t.Fatalf("Len = %d after +1/-1, want %d", st.Len(), n)
	}
	// Dump returns everything in key order.
	dump := st.Dump()
	if len(dump) != n {
		t.Fatalf("Dump has %d pairs, want %d", len(dump), n)
	}
	for i := 1; i < len(dump); i++ {
		if dump[i-1].Key >= dump[i].Key {
			t.Fatalf("Dump out of order at %d: %d >= %d", i, dump[i-1].Key, dump[i].Key)
		}
	}
	// Batch put lands atomically and is visible after the ack.
	batch := []core.Pair{{Key: 8 * (n + 10), TID: 1}, {Key: 8 * (n + 11), TID: 2}, {Key: 8 * (n + 12), TID: 3}}
	if err := st.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, p := range batch {
		if tid, ok := st.Get(p.Key); !ok || tid != p.TID {
			t.Fatalf("PutBatch key %d = (%d, %v)", p.Key, tid, ok)
		}
	}
	// Compact publishes a rebuilt snapshot with the same contents.
	before := st.Dump()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	after := st.Dump()
	if len(before) != len(after) {
		t.Fatalf("Compact changed count %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("Compact changed pair %d: %+v -> %+v", i, before[i], after[i])
		}
	}
}

func TestStoreStatsAndVersions(t *testing.T) {
	st := openTest(t, 1000, 2)
	s0 := st.Stats()
	if len(s0.Shards) != 2 || s0.Count != 1000 {
		t.Fatalf("initial stats: %+v", s0)
	}
	for _, sh := range s0.Shards {
		if sh.Version != 1 {
			t.Fatalf("initial version %d, want 1", sh.Version)
		}
	}
	k := core.Key(8 * 2000)
	if err := st.Put(k, 1); err != nil {
		t.Fatal(err)
	}
	s1 := st.Stats()
	bumped := 0
	for i := range s1.Shards {
		if s1.Shards[i].Version > s0.Shards[i].Version {
			bumped++
		}
	}
	if bumped != 1 {
		t.Fatalf("one Put bumped %d shard versions, want 1", bumped)
	}
	if s1.Count != 1001 {
		t.Fatalf("count after Put = %d", s1.Count)
	}
}

func TestStoreClosedAndConfig(t *testing.T) {
	st, err := Open(StoreConfig{Shards: 2}, workload.SortedPairs(100))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	st.Close() // idempotent
	if err := st.Put(8, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put on closed store: %v", err)
	}
	if _, ok := st.Get(8); !ok { // reads stay valid
		t.Fatal("Get failed on closed store")
	}
	// Misconfigurations are rejected.
	if _, err := Open(StoreConfig{Tree: core.Config{Mem: memsys.Default()}}, nil); err == nil {
		t.Fatal("Open accepted the single-threaded simulated hierarchy")
	}
	if _, err := Open(StoreConfig{Shards: -1}, nil); err == nil {
		t.Fatal("Open accepted negative shard count")
	}
}

func TestStoreBackpressure(t *testing.T) {
	// A full queue behind a stalled writer must reject, not block.
	st, err := Open(StoreConfig{Shards: 1}, workload.SortedPairs(10))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// The writer stalls acknowledging the first mutation: nobody reads
	// its unbuffered done until the test ends, before Close.
	sh := st.shards[0]
	published := sh.published.Load()
	done := make(chan result)
	if err := st.enqueue(sh, mutation{puts: []core.Pair{{Key: 8, TID: 1}}, done: done}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := <-done; r.err != nil {
			t.Error(r.err)
		}
	}()
	// Once the batch is published the writer is in its acknowledgement,
	// with the queue empty behind it.
	for deadline := time.Now().Add(5 * time.Second); sh.published.Load() == published; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the writer never published the first mutation")
		}
	}
	accepted := 0
	for ; accepted <= queueLen; accepted++ {
		err := st.enqueue(sh, mutation{puts: []core.Pair{{Key: 16, TID: 2}}})
		if errors.Is(err, ErrOverloaded) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if accepted != queueLen {
		t.Fatalf("queue of %d took %d writes behind a stalled writer before ErrOverloaded", queueLen, accepted)
	}
}

// TestPartialWriteIsNoRetry: a write that reached one shard's queue
// before another's was full is not "no effect" — its first part
// applies — so it must fail with an error the server answers StatusErr,
// not ErrOverloaded, whose StatusRetry promises nothing happened.
func TestPartialWriteIsNoRetry(t *testing.T) {
	st, err := Open(StoreConfig{Shards: 2}, workload.SortedPairs(10))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Shard 1's writer stalls acknowledging a mutation (as in
	// TestStoreBackpressure), and its queue is filled behind it.
	sh := st.shards[1]
	published := sh.published.Load()
	done := make(chan result)
	if err := st.enqueue(sh, mutation{done: done}); err != nil {
		t.Fatal(err)
	}
	defer func() { <-done }()
	for deadline := time.Now().Add(5 * time.Second); sh.published.Load() == published; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the writer never published the stalling mutation")
		}
	}
	for i := 0; i < queueLen; i++ {
		if err := st.enqueue(sh, mutation{}); err != nil {
			t.Fatal(err)
		}
	}
	var k0, k1 core.Key
	for k := core.Key(1000); k0 == 0 || k1 == 0; k++ {
		if st.ShardOf(k) == 0 {
			k0 = k
		} else {
			k1 = k
		}
	}
	err = st.PutBatch([]core.Pair{{Key: k0, TID: 7}, {Key: k1, TID: 7}})
	if err == nil || errors.Is(err, ErrOverloaded) {
		t.Fatalf("PutBatch half enqueued: %v, want an error that is not ErrOverloaded", err)
	}
	if rs := (&Server{}).writeResult(err); rs == nil || rs.Status != StatusErr {
		t.Fatalf("partial write answered %+v, want StatusErr", rs)
	}
	if tid, ok := st.Get(k0); !ok || tid != 7 {
		t.Fatalf("shard 0's part of the write: (%d, %v), want it applied", tid, ok)
	}
}

// fakeSnap is a backend.Snapshot over a sorted slice whose runs record
// the size of every fill they are asked for and count the rows they
// returned.
type fakeSnap struct {
	backend.Snapshot
	rows []core.Pair
	asks []int
	read int
}

func (f *fakeSnap) Run(start, end core.Key) backend.Run {
	r := &fakeRun{snap: f}
	for _, p := range f.rows {
		if p.Key >= start && p.Key <= end {
			r.rows = append(r.rows, p)
		}
	}
	return r
}

func (f *fakeSnap) Release() {}

// fakeRun is a fakeSnap's run: the rows of its range not yet read.
type fakeRun struct {
	snap *fakeSnap
	rows []core.Pair
}

func (r *fakeRun) NextPairs(buf []core.Pair) int {
	r.snap.asks = append(r.snap.asks, len(buf))
	n := copy(buf, r.rows)
	r.rows = r.rows[n:]
	r.snap.read += n
	return n
}

func (r *fakeRun) Done() bool { return len(r.rows) == 0 }

// fakeCursor builds a StoreCursor over [0, MaxUint32] with one fake
// shard per run of keys.
func fakeCursor(runs ...[]int) (*StoreCursor, []*fakeSnap) {
	c := new(StoreCursor)
	snaps := make([]*fakeSnap, len(runs))
	for i, ks := range runs {
		snaps[i] = &fakeSnap{}
		for _, k := range ks {
			snaps[i].rows = append(snaps[i].rows, core.Pair{Key: core.Key(k), TID: core.TID(k)})
		}
		c.snaps = append(c.snaps, snaps[i])
	}
	c.openRuns(0, math.MaxUint32)
	return c, snaps
}

// TestMergeRuns covers the one k-way merge (StoreCursor.merge, under
// take and Next): no runs, one run longer than the limit, interleaved
// runs, a limit hit mid-run — and the first-fill rule that keeps a
// short scan from reading shards x cursorRefill rows.
func TestMergeRuns(t *testing.T) {
	keysOf := func(rows []core.Pair) []int {
		out := make([]int, len(rows))
		for i, p := range rows {
			out[i] = int(p.Key)
		}
		return out
	}
	seq := func(from, step, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = from + i*step
		}
		return out
	}

	c, _ := fakeCursor()
	if rows, done := c.Next(5); len(rows) != 0 || !done {
		t.Fatalf("no runs: %v, done %v", rows, done)
	}

	c, _ = fakeCursor([]int{1, 2, 3, 4, 5})
	if rows, done := c.Next(3); !reflect.DeepEqual(keysOf(rows), []int{1, 2, 3}) || done {
		t.Fatalf("one run longer than the limit: %v, done %v", rows, done)
	}
	if rows, done := c.Next(3); !reflect.DeepEqual(keysOf(rows), []int{4, 5}) || !done {
		t.Fatalf("rest of the run: %v, done %v", rows, done)
	}

	c, _ = fakeCursor([]int{1, 4, 7}, []int{2, 5}, []int{3, 6, 8, 9})
	if rows, done := c.Next(100); !reflect.DeepEqual(keysOf(rows), seq(1, 1, 9)) || !done {
		t.Fatalf("interleaved runs: %v, done %v", rows, done)
	}

	c, _ = fakeCursor([]int{1, 2}, []int{3})
	if rows, done := c.Next(2); !reflect.DeepEqual(keysOf(rows), []int{1, 2}) || done {
		t.Fatalf("limit hit mid-merge: %v, done %v", rows, done)
	}

	// One chunk of 100 over three long shards: each is asked once, for
	// its share of the chunk and a margin, never for cursorRefill.
	c, snaps := fakeCursor(seq(1, 3, 2000), seq(2, 3, 2000), seq(3, 3, 2000))
	if rows, done := c.Next(100); !reflect.DeepEqual(keysOf(rows), seq(1, 1, 100)) || done {
		t.Fatalf("first chunk: %d rows, done %v", len(rows), done)
	}
	for i, s := range snaps {
		if len(s.asks) != 1 || s.asks[0] != firstFill(100, 3) || s.asks[0] > 50 {
			t.Fatalf("shard %d was asked for %v rows by a 100-row chunk", i, s.asks)
		}
	}
	// Later fills double up to cursorRefill, and the stream stays
	// gapless.
	var got []int
	for done := false; !done; {
		var rows []core.Pair
		rows, done = c.Next(256)
		got = append(got, keysOf(rows)...)
	}
	if !reflect.DeepEqual(got, seq(101, 1, 5900)) {
		t.Fatalf("rest of the stream: %d rows, first %v", len(got), got[:min(3, len(got))])
	}
	for i, s := range snaps {
		for j, ask := range s.asks[1:] {
			if want := min(2*s.asks[j], cursorRefill); ask != want {
				t.Fatalf("shard %d refill %d asked for %d rows, want %d (asks %v)", i, j+1, ask, want, s.asks)
			}
		}
		if last := s.asks[len(s.asks)-1]; last != cursorRefill {
			t.Fatalf("shard %d never reached %d-row refills: %v", i, cursorRefill, s.asks)
		}
	}
}

// TestCursorFirstFill is the over-read gate of a drained-once cursor
// (Store.Scan's path): whatever the shard count and however the rows
// fall across the shards, the result is the merged prefix, every shard
// is asked at least once, and no shard reads more than twice what it
// delivered plus its first fill.
func TestCursorFirstFill(t *testing.T) {
	const total = 600
	layouts := map[string]func(shards int) [][]int{
		"one shard holds all": func(shards int) [][]int {
			runs := make([][]int, shards)
			for k := 1; k <= total; k++ {
				runs[shards-1] = append(runs[shards-1], k)
			}
			return runs
		},
		"even split": func(shards int) [][]int {
			runs := make([][]int, shards)
			for k := 1; k <= total; k++ {
				runs[k%shards] = append(runs[k%shards], k)
			}
			return runs
		},
	}
	for _, shards := range []int{1, 2, 8} {
		for name, layout := range layouts {
			for _, limit := range []int{1, 100, total + 50} {
				runs := layout(shards)
				owner := map[core.Key]int{}
				for j, ks := range runs {
					for _, k := range ks {
						owner[core.Key(k)] = j
					}
				}
				c, snaps := fakeCursor(runs...)
				rows := c.take(limit)
				want := min(limit, total)
				if len(rows) != want {
					t.Fatalf("%d shards, %s, limit %d: %d rows, want %d", shards, name, limit, len(rows), want)
				}
				delivered := make([]int, shards)
				for i, p := range rows {
					if int(p.Key) != i+1 {
						t.Fatalf("%d shards, %s, limit %d: row %d is key %d", shards, name, limit, i, p.Key)
					}
					delivered[owner[p.Key]]++
				}
				read := 0
				for j, s := range snaps {
					first := firstFill(limit, shards)
					if len(s.asks) == 0 || s.asks[0] != first {
						t.Fatalf("%d shards, %s, limit %d: shard %d asks %v, want a first fill of %d", shards, name, limit, j, s.asks, first)
					}
					if s.read > 2*delivered[j]+first {
						t.Errorf("%d shards, %s, limit %d: shard %d read %d rows to deliver %d (first fill %d)", shards, name, limit, j, s.read, delivered[j], first)
					}
					read += s.read
				}
				if shards == 1 && read != want {
					t.Errorf("one shard, %s, limit %d: read %d rows to return %d", name, limit, read, want)
				}
				if name == "even split" && limit == 100 && read > 2*limit {
					t.Errorf("%d shards, even split: read %d rows for a %d-row scan", shards, read, limit)
				}
			}
		}
	}
}

// TestStoreMGetPaths drives mget down each of its paths over one
// reused scratch — a one-shard store, a batch that happens to land on
// one shard, a mixed batch with duplicates and misses, then a smaller
// batch over the grown scratch — and checks every result against Get.
func TestStoreMGetPaths(t *testing.T) {
	const n = 4000
	for _, shards := range []int{1, 3} {
		st := openTest(t, n, shards)
		var oneShard, mixed []core.Key
		for k := core.Key(8); len(oneShard) < 20; k += 8 {
			if st.ShardOf(k) == st.ShardOf(8) {
				oneShard = append(oneShard, k)
			}
		}
		for i := 0; i < 100; i++ {
			mixed = append(mixed, core.Key(8*(1+i*37%n)), core.Key(8*i+3), core.Key(8*(1+i%5)))
		}
		var sc mgetScratch
		for _, keys := range [][]core.Key{oneShard, mixed, mixed[:7], oneShard[:1], nil} {
			out := make([]Lookup, len(keys))
			st.mget(keys, out, &sc)
			for i, k := range keys {
				if tid, ok := st.Get(k); out[i] != (Lookup{TID: tid, Found: ok}) {
					t.Fatalf("%d shards, batch of %d: key %d = %+v, Get = (%d, %v)", shards, len(keys), k, out[i], tid, ok)
				}
			}
		}
	}
}

// TestStoreMGetAllocates: an in-process MGet of 16 keys over two
// shards allocates nothing — its scratch comes from a pool.
func TestStoreMGetAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items")
	}
	st := openTest(t, 10_000, 2)
	keys, out := make([]core.Key, 16), make([]Lookup, 16)
	for i := range keys {
		keys[i] = core.Key(8 * (1 + i*613%10_000))
	}
	if n := testing.AllocsPerRun(200, func() { st.MGet(keys, out) }); n != 0 {
		t.Errorf("MGet(16 keys, 2 shards) allocates %v times, want 0", n)
	}
	for i, k := range keys {
		if tid, ok := st.Get(k); out[i] != (Lookup{TID: tid, Found: ok}) || !ok {
			t.Fatalf("key %d = %+v, Get = (%d, %v)", k, out[i], tid, ok)
		}
	}
}

// TestStorePutAllocates: a Put, a Delete and a one-key DEL request each
// allocate once — the new version of the shard's tree, in the shard
// writer — and nothing in the caller: the completion channel and the
// one-element slice come from the waiter free list, the ack callback
// is made once per shard.
func TestStorePutAllocates(t *testing.T) {
	st := openTest(t, 10_000, 2)
	k := core.Key(8)
	if n := testing.AllocsPerRun(200, func() {
		k += 8
		if err := st.Put(k, 1); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Put allocates %v times, want <= 1", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		k -= 8
		if err := st.Delete(k); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Delete allocates %v times, want <= 1", n)
	}
	// A one-key DEL request takes a waiter from the same free list
	// through the submit and await that serve every PUT and DEL request.
	keys := make([]core.Key, 1)
	if n := testing.AllocsPerRun(200, func() {
		k -= 8
		keys[0] = k
		if err := st.await(st.submit(nil, nil, keys, nil)); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("a one-key DEL request allocates %v times, want <= 1", n)
	}
}
