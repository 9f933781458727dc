// Package backendtest is the conformance suite every storage backend
// must pass. It drives a serve.Store configured for the backend under
// test through the properties the serving layer relies on but
// cannot itself guarantee:
//
//   - Atomicity: a multi-key batch becomes visible in one step — no
//     reader ever observes part of a batch.
//   - Snapshot consistency: a scan taken while a writer overwrites
//     every key sees exactly one write generation, never a mix, even
//     while the backend flushes and compacts underneath it.
//   - Scan equivalence: a one-shot Scan and a cursor drained in
//     chunks of any size return the same rows, the model's, at any
//     shard count.
//   - Crash recovery: after a power cut at any byte-granular disk
//     prefix, reopening recovers exactly the contents after some
//     number j of acknowledged mutations, with j covering every
//     mutation acked before the cut (FsyncAlways) and the published
//     version equal to j+1.
//
// A new backend passes by adding one line to conformance_test.go; the
// suite is intentionally backend-agnostic and only speaks the public
// Store API.
package backendtest

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"pbtree/internal/core"
	"pbtree/internal/lsm"
	"pbtree/internal/serve"
	"pbtree/internal/storage"
)

// tinyLSM forces run churn at test scale so the conformance workload
// exercises flush, compaction and multi-run reads, not just the
// memtable. Ignored by backends that don't read it.
var tinyLSM = lsm.Config{FlushKeys: 4, MaxRuns: 2}

// Run executes the full conformance suite against the named backend.
func Run(t *testing.T, backendName string) {
	t.Run("Atomicity", func(t *testing.T) { testAtomicity(t, backendName) })
	t.Run("SnapshotConsistency", func(t *testing.T) { testSnapshotConsistency(t, backendName) })
	t.Run("ExactCount", func(t *testing.T) { testExactCount(t, backendName) })
	t.Run("CrashRecovery", func(t *testing.T) { testCrashRecovery(t, backendName) })
	t.Run("ScanEquivalence", func(t *testing.T) { testScanEquivalence(t, backendName) })
}

func openStore(t *testing.T, backendName string, durable *serve.DurableConfig) *serve.Store {
	t.Helper()
	st, err := serve.Open(serve.StoreConfig{
		Shards:  1, // batch atomicity is a per-shard property
		Backend: backendName,
		LSM:     tinyLSM,
		Durable: durable,
	}, nil)
	if err != nil {
		t.Fatalf("open %s store: %v", backendName, err)
	}
	if err := st.WaitReady(); err != nil {
		t.Fatalf("%s store not ready: %v", backendName, err)
	}
	return st
}

// testAtomicity hammers one shard with multi-key batches that share a
// TID per generation while readers group-get the batch keys; any read
// returning two different TIDs caught a half-applied batch.
func testAtomicity(t *testing.T, backendName string) {
	st := openStore(t, backendName, nil)
	defer st.Close()
	keys := []core.Key{8, 16, 24, 32, 40}
	batch := make([]core.Pair, len(keys))
	put := func(gen core.TID) {
		for i, k := range keys {
			batch[i] = core.Pair{Key: k, TID: gen}
		}
		if err := st.PutBatch(batch); err != nil {
			t.Errorf("PutBatch gen %d: %v", gen, err)
		}
	}
	put(1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]serve.Lookup, len(keys))
			for {
				select {
				case <-done:
					return
				default:
				}
				st.MGet(keys, out)
				gen := out[0].TID
				for i, l := range out {
					if !l.Found || l.TID != gen {
						t.Errorf("torn batch: key %d has TID %d, key %d has %d",
							keys[0], gen, keys[i], l.TID)
						return
					}
				}
			}
		}()
	}
	for gen := core.TID(2); gen <= 400; gen++ {
		put(gen)
	}
	close(done)
	wg.Wait()
}

// testSnapshotConsistency checks that full scans are stable while a
// writer overwrites every key: a scan must see all N keys carrying a
// single generation even as the backend flushes and compacts.
func testSnapshotConsistency(t *testing.T, backendName string) {
	st := openStore(t, backendName, nil)
	defer st.Close()
	const n = 64
	pairs := make([]core.Pair, n)
	put := func(gen core.TID) {
		for i := range pairs {
			pairs[i] = core.Pair{Key: core.Key((i + 1) * 8), TID: gen}
		}
		if err := st.PutBatch(pairs); err != nil {
			t.Errorf("PutBatch gen %d: %v", gen, err)
		}
	}
	put(1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			got := st.Scan(0, core.Key(n+1)*8, n+1)
			if len(got) != n {
				t.Errorf("scan saw %d keys, want %d", len(got), n)
				return
			}
			gen := got[0].TID
			for _, p := range got {
				if p.TID != gen {
					t.Errorf("mixed-generation scan: saw TID %d and %d", gen, p.TID)
					return
				}
			}
		}
	}()
	for gen := core.TID(2); gen <= 200; gen++ {
		put(gen)
	}
	close(done)
	wg.Wait()
}

// testExactCount drives a workload heavy in overwrites, deletes of
// absent keys, double deletes and tombstone resurrections — the cases
// that historically drifted the LSM engine's count estimate — and
// demands the reported key count equal the model's at every step,
// across flushes, compactions, and an explicit Compact.
func testExactCount(t *testing.T, backendName string) {
	st := openStore(t, backendName, nil)
	defer st.Close()
	model := map[core.Key]core.TID{}
	check := func(when string) {
		t.Helper()
		if got := st.Len(); got != len(model) {
			t.Fatalf("%s: Len() = %d, want %d", when, got, len(model))
		}
		if got := st.Stats().Count; got != len(model) {
			t.Fatalf("%s: Stats().Count = %d, want %d", when, got, len(model))
		}
	}
	put := func(k core.Key, tid core.TID) {
		if err := st.Put(k, tid); err != nil {
			t.Fatal(err)
		}
		model[k] = tid
	}
	del := func(k core.Key) {
		if err := st.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(model, k)
	}
	for i := 0; i < 40; i++ {
		put(core.Key(8*(i+1)), core.TID(i+1))
	}
	check("after inserts")
	for i := 0; i < 40; i += 2 {
		put(core.Key(8*(i+1)), core.TID(1000+i)) // run-resident overwrites
	}
	check("after overwrites")
	for i := 0; i < 40; i += 4 {
		del(core.Key(8 * (i + 1)))
	}
	del(core.Key(9999)) // absent key
	check("after deletes")
	for i := 0; i < 40; i += 4 {
		del(core.Key(8 * (i + 1))) // double deletes
	}
	check("after double deletes")
	for i := 0; i < 40; i += 8 {
		put(core.Key(8*(i+1)), core.TID(2000+i)) // resurrect tombstones
	}
	check("after resurrections")
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	check("after compact")
}

// testScanEquivalence is the seeded property behind the single scan
// path: for random start, end, limit and chunk, at 1, 2 and 5 shards,
// Store.Scan equals the first limit rows of the concatenated
// Next(chunk) stream, and both equal the model's rows.
func testScanEquivalence(t *testing.T, backendName string) {
	const keySpace = 6000
	for _, shards := range []int{1, 2, 5} {
		r := rand.New(rand.NewSource(int64(shards)))
		st, err := serve.Open(serve.StoreConfig{Shards: shards, Backend: backendName, LSM: tinyLSM}, nil)
		if err != nil {
			t.Fatal(err)
		}
		model := map[core.Key]core.TID{}
		for i := 0; i < 3000; i++ {
			k := core.Key(r.Intn(keySpace))
			if r.Intn(4) == 0 {
				st.Delete(k)
				delete(model, k)
			} else if err := st.Put(k, core.TID(i)); err != nil {
				t.Fatal(err)
			} else {
				model[k] = core.TID(i)
			}
		}
		for i := 0; i < 300; i++ {
			start := core.Key(r.Intn(keySpace))
			end := start + core.Key(r.Intn(keySpace/(1+r.Intn(8))))
			limit, chunk := 1+r.Intn(2500), 1+r.Intn(1500)
			var want []core.Pair
			for k := start; k <= end && len(want) < limit; k++ {
				if tid, ok := model[k]; ok {
					want = append(want, core.Pair{Key: k, TID: tid})
				}
			}
			scan := st.Scan(start, end, limit)
			cur, err := st.OpenCursor(start, end)
			if err != nil {
				t.Fatal(err)
			}
			var stream []core.Pair
			for done := false; !done && len(stream) < limit; {
				var rows []core.Pair
				rows, done = cur.Next(chunk)
				stream = append(stream, rows...)
			}
			cur.Close()
			stream = stream[:min(limit, len(stream))]
			if !pairListsEqual(scan, want) || !pairListsEqual(stream, want) {
				t.Fatalf("%d shards, [%d, %d] limit %d chunk %d: Scan %d rows, stream %d rows, model %d",
					shards, start, end, limit, chunk, len(scan), len(stream), len(want))
			}
		}
		st.Close()
	}
}

// testCrashRecovery is the acked-prefix property at byte granularity:
// run a scripted put/overwrite/delete workload on a journaling MemFS,
// then for sampled disk prefixes reopen the store and demand the
// recovered contents equal the state after some acked prefix j, with
// j covering every ack that fired before the cut.
func testCrashRecovery(t *testing.T, backendName string) {
	fs := storage.NewMemFS()
	durable := func() *serve.DurableConfig {
		return &serve.DurableConfig{FS: fs, Fsync: serve.FsyncAlways, CheckpointEvery: 4}
	}
	st := openStore(t, backendName, durable())

	// Scripted history: hist[j] = sorted contents after j acked
	// mutations; ackPoints[j-1] = journal position when ack j fired.
	model := map[core.Key]core.TID{}
	var hist [][]core.Pair
	var ackPoints []int64
	snap := func() []core.Pair {
		ps := make([]core.Pair, 0, len(model))
		for k, tid := range model {
			ps = append(ps, core.Pair{Key: k, TID: tid})
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].Key < ps[j].Key })
		return ps
	}
	hist = append(hist, snap())
	step := func(err error, apply func()) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		apply()
		hist = append(hist, snap())
		ackPoints = append(ackPoints, fs.CrashPoints())
	}
	const hot = core.Key(8)
	for i := 0; i < 20; i++ {
		switch i % 4 {
		case 0: // multi-key batch
			b := []core.Pair{
				{Key: core.Key(100 + i*8), TID: core.TID(i + 1)},
				{Key: core.Key(104 + i*8), TID: core.TID(i + 2)},
			}
			step(st.PutBatch(b), func() {
				for _, p := range b {
					model[p.Key] = p.TID
				}
			})
		case 1: // hot-key overwrite
			step(st.Put(hot, core.TID(1000+i)), func() { model[hot] = core.TID(1000 + i) })
		case 2: // delete the smallest non-hot key
			var k core.Key
			for k2 := range model {
				if k2 != hot && (k == 0 || k2 < k) {
					k = k2
				}
			}
			step(st.Delete(k), func() { delete(model, k) })
		default: // fresh insert
			k := core.Key(10000 + i*8)
			step(st.Put(k, core.TID(i)), func() { model[k] = core.TID(i) })
		}
	}
	st.Close()
	end := fs.CrashPoints()

	// Sample: every ack boundary and its predecessor (where
	// durability is decided) plus a stride over the rest.
	pts := map[int64]bool{0: true, end: true}
	for _, a := range ackPoints {
		pts[a-1] = true
		pts[a] = true
	}
	for p := int64(0); p <= end; p += 1 + end/200 {
		pts[p] = true
	}
	for p := range pts {
		if p < 0 || p > end {
			continue
		}
		crashed := fs.CrashAt(p, true) // the volatile disk cache dies too
		st2, err := serve.Open(serve.StoreConfig{
			Shards:  1,
			Backend: backendName,
			LSM:     tinyLSM,
			Durable: &serve.DurableConfig{FS: crashed, Fsync: serve.FsyncAlways, CheckpointEvery: 4},
		}, nil)
		if err != nil {
			t.Fatalf("crash point %d: reopen: %v", p, err)
		}
		if err := st2.WaitReady(); err != nil {
			t.Fatalf("crash point %d: recovery: %v", p, err)
		}
		got := st2.Dump()
		j := -1
		for cand := len(hist) - 1; cand >= 0; cand-- {
			if pairListsEqual(hist[cand], got) {
				j = cand
				break
			}
		}
		if j < 0 {
			t.Fatalf("crash point %d: recovered contents %v match no acked prefix", p, got)
		}
		acked := 0
		for _, a := range ackPoints {
			if a <= p {
				acked++
			}
		}
		if j < acked {
			t.Fatalf("crash point %d: recovered state %d but %d mutations were acked before the cut", p, j, acked)
		}
		if v := st2.Stats().Shards[0].Version; v != uint64(j)+1 {
			t.Fatalf("crash point %d: version %d after recovering state %d (want %d)", p, v, j, j+1)
		}
		st2.Close()
	}
}

func pairListsEqual(a, b []core.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
