package serve

// Snapshot-consistency integration test, meant to run under -race (and
// run by `make check`): concurrent readers must never observe a torn
// write — a shard where only part of an atomic batch is visible — and
// shard versions must move monotonically.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbtree/internal/core"
)

func TestStoreSnapshotConsistency(t *testing.T) {
	const (
		n       = 20_000
		readers = 4
		rounds  = 50
	)
	st := openTest(t, n, 4)

	// The writer repeatedly rewrites a probe group — keys chosen to
	// land in one shard — setting every TID to the round number in one
	// atomic PutBatch. Readers MGet the group and assert all values
	// are equal: seeing a mix of rounds would be a torn batch.
	shard0 := -1
	var probe []core.Key
	for k := core.Key(8); len(probe) < 4; k += 8 {
		s := st.ShardOf(k)
		if shard0 == -1 {
			shard0 = s
		}
		if s == shard0 {
			probe = append(probe, k)
		}
	}

	// Level the group before readers start: the preloaded TIDs differ
	// per key, which would read as "torn" below.
	pairs0 := make([]core.Pair, len(probe))
	for i, k := range probe {
		pairs0[i] = core.Pair{Key: k, TID: 0}
	}
	if err := st.PutBatch(pairs0); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var torn atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out := make([]Lookup, len(probe))
			var lastVer uint64
			for iter := 0; !stop.Load(); iter++ {
				st.MGet(probe, out)
				for i := 1; i < len(out); i++ {
					if !out[i].Found || out[i].TID != out[0].TID {
						torn.Add(1)
					}
				}
				// Versions never go backwards (checked on a sample of
				// iterations; Stats materializes every shard).
				if iter%16 == 0 {
					v := st.Stats().Shards[shard0].Version
					if v < lastVer {
						t.Errorf("shard version went backwards: %d -> %d", lastVer, v)
						return
					}
					lastVer = v
				}
				// Keep scans in the mix: they walk full snapshots.
				if r == 0 && iter%8 == 0 {
					st.Scan(8, 8*64, 32)
				}
			}
		}(r)
	}

	pairs := make([]core.Pair, len(probe))
	for round := 1; round <= rounds; round++ {
		for i, k := range probe {
			pairs[i] = core.Pair{Key: k, TID: core.TID(round)}
		}
		// Under load the queue may briefly fill; overload is backpressure,
		// not failure.
		for {
			err := st.PutBatch(pairs)
			if err == nil {
				break
			}
			if err != ErrOverloaded {
				t.Errorf("PutBatch: %v", err)
				break
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if c := torn.Load(); c != 0 {
		t.Fatalf("observed %d torn batch reads", c)
	}
	// Final state: every probe key holds the last round.
	for _, k := range probe {
		if tid, ok := st.Get(k); !ok || tid != core.TID(rounds) {
			t.Fatalf("probe key %d = (%d, %v), want (%d, true)", k, tid, ok, rounds)
		}
	}
}

// TestStoreConcurrentChurn hammers every operation class at once; the
// assertions are the race detector plus basic sanity of results.
func TestStoreConcurrentChurn(t *testing.T) {
	const n = 10_000
	st := openTest(t, n, 4)
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Readers: Get + MGet of stable preloaded keys (never mutated
	// below, so results are exactly predictable even mid-churn).
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			keys := make([]core.Key, 16)
			out := make([]Lookup, 16)
			x := uint64(seed)
			for !stop.Load() {
				for i := range keys {
					x = x*6364136223846793005 + 1442695040888963407
					keys[i] = core.Key(8 * (1 + x%(n/2))) // lower half: never churned
				}
				st.MGet(keys, out)
				for i, l := range out {
					if !l.Found || uint32(l.TID) != uint32(keys[i])/8 {
						t.Errorf("MGet(%d) = %+v", keys[i], l)
						return
					}
				}
			}
		}(int64(r + 1))
	}
	// Writers: churn the upper half with inserts and deletes.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed
			for !stop.Load() {
				x = x*6364136223846793005 + 1442695040888963407
				k := core.Key(8 * (n/2 + 1 + x%(n/2)))
				var err error
				if x%3 == 0 {
					err = st.Delete(k)
				} else {
					err = st.Put(k, core.TID(k/8))
				}
				if err != nil && err != ErrOverloaded {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(uint64(w + 99))
	}
	// Scanner walks ranges spanning both halves.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			got := st.Scan(8*(n/2-50), 8*(n/2+50), 200)
			for i := 1; i < len(got); i++ {
				if got[i-1].Key >= got[i].Key {
					t.Errorf("scan out of order: %d >= %d", got[i-1].Key, got[i].Key)
					return
				}
			}
		}
	}()

	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		st.Stats()
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
}

// TestStoreReadsDuringRebuild reads through every path — Get, MGet,
// Scan and a cursor held open across writes — while the shard writers
// publish versions and rebuild their trees: every other round a
// Compact builds a fresh tree (core.New) on a writer goroutine against
// the one memory model all shards and all readers share, so
// construction must write nothing to it; it once flipped a mode bit
// there. The assertions are the race detector plus a model:
// a stable key always answers its preloaded value, a rewritten key
// answers a round no older than the last acknowledged write before the
// read began and no newer than the last one issued when it ended.
func TestStoreReadsDuringRebuild(t *testing.T) {
	const (
		n      = 4_000
		rounds = 40
		hotGap = 16 // every 16th key is rewritten each round
	)
	st := openTest(t, n, 2)
	hot := func(k core.Key) bool { return (k/8)%hotGap == 0 }
	batch := make([]core.Pair, 0, n/hotGap)
	for i := hotGap; i <= n; i += hotGap {
		batch = append(batch, core.Pair{Key: core.Key(8 * i)})
	}
	write := func(round int) {
		for i := range batch {
			batch[i].TID = core.TID(round)
		}
		for {
			err := st.PutBatch(batch)
			if err == nil {
				return
			}
			if err != ErrOverloaded {
				t.Errorf("PutBatch: %v", err)
				return
			}
		}
	}
	write(0) // level the hot keys before readers start

	var issued, acked atomic.Int64
	// check validates one answer read between lo := acked.Load() and
	// the call, reporting what is wrong with it.
	check := func(what string, p core.Pair, found bool, lo int64) bool {
		switch {
		case !found:
			t.Errorf("%s lost key %d", what, p.Key)
		case p.Key%8 != 0 || p.Key == 0 || p.Key > 8*n:
			t.Errorf("%s returned key %d, which was never stored", what, p.Key)
		case !hot(p.Key) && uint32(p.TID) != uint32(p.Key)/8:
			t.Errorf("%s: stable key %d = %d, want %d", what, p.Key, p.TID, p.Key/8)
		case hot(p.Key) && (int64(p.TID) < lo || int64(p.TID) > issued.Load()):
			t.Errorf("%s: key %d = round %d, outside [%d acked, %d issued]", what, p.Key, p.TID, lo, issued.Load())
		default:
			return true
		}
		return false
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			keys := make([]core.Key, 16)
			out := make([]Lookup, len(keys))
			for !stop.Load() {
				for i := range keys {
					x = x*6364136223846793005 + 1442695040888963407
					keys[i] = core.Key(8 * (1 + x>>33%n))
				}
				lo := acked.Load()
				tid, ok := st.Get(keys[0])
				if !check("Get", core.Pair{Key: keys[0], TID: tid}, ok, lo) {
					return
				}
				lo = acked.Load()
				st.MGet(keys, out)
				for i, l := range out {
					if !check("MGet", core.Pair{Key: keys[i], TID: l.TID}, l.Found, lo) {
						return
					}
				}
				lo = acked.Load()
				rows := st.Scan(keys[1], keys[1]+8*200, 100)
				for i, p := range rows {
					if !check("Scan", p, true, lo) {
						return
					}
					if i > 0 && rows[i-1].Key >= p.Key {
						t.Errorf("Scan out of order: %+v after %+v", p, rows[i-1])
						return
					}
				}
			}
		}(uint64(r + 1))
	}
	// The cursor reader pins one version per shard across several
	// writes, which makes the writers retire blocks instead of reusing
	// them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			lo := acked.Load()
			c, err := st.OpenCursor(8, 8*n)
			if err != nil {
				t.Errorf("OpenCursor: %v", err)
				return
			}
			seen, last := 0, core.Key(0)
			for done := false; !done; {
				var rows []core.Pair
				rows, done = c.Next(500)
				for _, p := range rows {
					if !check("cursor", p, true, lo) || p.Key <= last {
						t.Errorf("cursor row %+v after key %d", p, last)
						c.Close()
						return
					}
					last = p.Key
				}
				seen += len(rows)
			}
			c.Close()
			if seen != n {
				t.Errorf("cursor saw %d rows, want %d", seen, n)
				return
			}
		}
	}()

	for round := 1; round <= rounds; round++ {
		issued.Store(int64(round))
		write(round)
		acked.Store(int64(round))
		if round%2 == 0 {
			if err := st.Compact(); err != nil {
				t.Errorf("Compact: %v", err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	for _, p := range batch {
		if tid, ok := st.Get(p.Key); !ok || tid != rounds {
			t.Fatalf("hot key %d = (%d, %v) at the end, want (%d, true)", p.Key, tid, ok, rounds)
		}
	}
}
