package serve

// A seeded history test of the in-process store (ROADMAP 4(a), first
// slice): one writer issues a scripted history — single puts, atomic
// batches, deletes, one Compact — beside Get, MGet and Scan readers
// and a cursor that stays open for the whole run, on both engines,
// under the race detector, and every answer is held to a model.
//
// The history runs in rounds. In round r every hot key is touched at
// most once, so a key's state is its end-of-round state of round r-1
// or r and nothing else:
//
//	batch keys  — rewritten to TID r by one PutBatch: within a shard
//	              they move together, so any one version of a shard
//	              shows them all equal;
//	single keys — rewritten to TID r by a Put each, in seeded order;
//	flicker keys — put (TID r) in even rounds, deleted in odd ones.
//
// A read that began after round lo was acknowledged and ended while
// round hi was being issued must show, for every key, the end-of-round
// state of some round in [lo, hi]; a scan or a cursor chunk reads one
// version per shard, so its batch keys agree shard by shard; a cursor
// shows the window it was opened in however late its chunks are read.

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pbtree/internal/core"
	"pbtree/internal/workload"
)

const (
	histKeys = 6_000 // keys 8, 16, ..., TID = key/8 until rewritten
	histHot  = 12    // every 12th key is hot: batch, single, flicker in turn
)

// histKind classifies a key: 0 stable, 1 batch, 2 single, 3 flicker.
func histKind(k core.Key) int {
	i := int(k / 8)
	if k%8 != 0 || i < 1 || i > histKeys || i%histHot != 0 {
		return 0
	}
	return 1 + i/histHot%3
}

// histCheck holds one answer — the pair read, or found=false for a
// point read that missed — to the model, for a read inside the window
// of rounds [lo, hi]. It returns what is wrong with it, or "".
func histCheck(p core.Pair, found bool, lo, hi int64) string {
	r, kind := int64(p.TID), histKind(p.Key)
	switch {
	case p.Key%8 != 0 || p.Key == 0 || p.Key > 8*histKeys:
		return fmt.Sprintf("key %d was never stored", p.Key)
	case kind == 0 && (!found || uint32(p.TID) != uint32(p.Key)/8):
		return fmt.Sprintf("stable key %d = (%d, %v)", p.Key, p.TID, found)
	case kind == 3 && !found:
		if lo == hi && lo%2 == 0 {
			return fmt.Sprintf("flicker key %d missing in round %d, which put it", p.Key, lo)
		}
	case !found:
		return fmt.Sprintf("key %d lost", p.Key)
	case kind != 0 && (r < lo || r > hi):
		return fmt.Sprintf("key %d = round %d, outside [%d acked, %d issued]", p.Key, r, lo, hi)
	case kind == 3 && r%2 != 0:
		return fmt.Sprintf("flicker key %d = odd round %d, which deleted it", p.Key, r)
	}
	return ""
}

// histRows checks the rows of one scan or cursor chunk: each against
// the model, in key order, and — one version per shard — the batch
// keys of a shard all in the same round. shardRound carries the rounds
// seen so far, for a cursor whose chunks must agree with each other.
func histRows(st *Store, rows []core.Pair, lo, hi int64, shardRound []int64) string {
	for i, p := range rows {
		if msg := histCheck(p, true, lo, hi); msg != "" {
			return msg
		}
		if i > 0 && rows[i-1].Key >= p.Key {
			return fmt.Sprintf("row %+v after %+v", p, rows[i-1])
		}
		if histKind(p.Key) == 1 {
			s := st.ShardOf(p.Key)
			if shardRound[s] < 0 {
				shardRound[s] = int64(p.TID)
			} else if shardRound[s] != int64(p.TID) {
				return fmt.Sprintf("shard %d shows batch keys of rounds %d and %d in one version", s, shardRound[s], p.TID)
			}
		}
	}
	return ""
}

func freshRounds(shards int) []int64 {
	r := make([]int64, shards)
	for i := range r {
		r[i] = -1
	}
	return r
}

func TestStoreHistory(t *testing.T) {
	for _, be := range []string{BackendPBTree, BackendLSM} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", be, seed), func(t *testing.T) { runHistory(t, be, seed) })
		}
	}
}

func runHistory(t *testing.T, be string, seed int64) {
	const rounds, shards = 60, 2
	st, err := Open(StoreConfig{Shards: shards, Backend: be}, workload.SortedPairs(histKeys))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var hot [4][]core.Key
	for i := 1; i <= histKeys; i++ {
		k := core.Key(8 * i)
		hot[histKind(k)] = append(hot[histKind(k)], k)
	}
	retry := func(what string, f func() error) {
		for {
			err := f()
			if err == nil {
				return
			}
			if err != ErrOverloaded {
				t.Errorf("seed %d: %s: %v", seed, what, err)
				return
			}
		}
	}
	r := rand.New(rand.NewSource(seed))
	batch := make([]core.Pair, len(hot[1]))
	writeRound := func(round int) {
		for i, k := range hot[1] {
			batch[i] = core.Pair{Key: k, TID: core.TID(round)}
		}
		singles := append(append([]core.Key(nil), hot[2]...), hot[3]...)
		r.Shuffle(len(singles), func(i, j int) { singles[i], singles[j] = singles[j], singles[i] })
		at := r.Intn(len(singles) + 1) // where among the singles the batch goes
		for i, k := range singles {
			if i == at {
				retry("PutBatch", func() error { return st.PutBatch(batch) })
			}
			if histKind(k) == 3 && round%2 != 0 {
				retry("Delete", func() error { return st.Delete(k) })
			} else {
				retry("Put", func() error { return st.Put(k, core.TID(round)) })
			}
		}
		if at == len(singles) {
			retry("PutBatch", func() error { return st.PutBatch(batch) })
		}
		if round == rounds/2 {
			retry("Compact", st.Compact)
		}
	}
	writeRound(0) // level the hot keys: everything is in round 0

	// The cursor of the whole run: opened now, read a chunk a round,
	// closed after the last write. Its window is the one it opened in.
	held, err := st.OpenCursor(0, core.MaxKey)
	if err != nil {
		t.Fatal(err)
	}
	heldRounds, heldSeen := freshRounds(shards), 0
	readHeld := func(n int) {
		rows, _ := held.Next(n)
		if msg := histRows(st, rows, 0, 0, heldRounds); msg != "" {
			t.Errorf("seed %d: the held cursor: %s", seed, msg)
		}
		heldSeen += len(rows)
	}

	var issued, acked atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for id := 0; id < 3; id++ {
		wg.Add(1)
		go func(rr *rand.Rand) {
			defer wg.Done()
			keys, out := make([]core.Key, 16), make([]Lookup, 16)
			fail := func(what, msg string) bool {
				if msg != "" {
					t.Errorf("seed %d: %s: %s", seed, what, msg)
				}
				return msg != ""
			}
			for !stop.Load() {
				for i := range keys {
					keys[i] = core.Key(8 * (1 + rr.Intn(histKeys)))
					if i%2 == 0 { // half the probes on hot keys
						keys[i] = core.Key(8 * histHot * (1 + rr.Intn(histKeys/histHot)))
					}
				}
				lo := acked.Load()
				tid, ok := st.Get(keys[0])
				if fail("Get", histCheck(core.Pair{Key: keys[0], TID: tid}, ok, lo, issued.Load())) {
					return
				}
				lo = acked.Load()
				st.MGet(keys, out)
				hi := issued.Load()
				for i, l := range out {
					if fail("MGet", histCheck(core.Pair{Key: keys[i], TID: l.TID}, l.Found, lo, hi)) {
						return
					}
				}
				lo = acked.Load()
				rows := st.Scan(keys[1], keys[1]+8*400, 300)
				if fail("Scan", histRows(st, rows, lo, issued.Load(), freshRounds(shards))) {
					return
				}
				// A short-lived cursor, read in chunks while writes go on.
				lo = acked.Load()
				c, err := st.OpenCursor(keys[2], keys[2]+8*2000)
				if err != nil {
					t.Errorf("seed %d: OpenCursor: %v", seed, err)
					return
				}
				hi = issued.Load()
				seen := freshRounds(shards)
				for done := false; !done; {
					var chunk []core.Pair
					chunk, done = c.Next(256)
					if fail("cursor", histRows(st, chunk, lo, hi, seen)) {
						c.Close()
						return
					}
				}
				c.Close()
			}
		}(rand.New(rand.NewSource(seed*100 + int64(id))))
	}
	for round := 1; round <= rounds; round++ {
		issued.Store(int64(round))
		writeRound(round)
		acked.Store(int64(round))
		readHeld(histKeys / rounds / 2)
	}
	stop.Store(true)
	wg.Wait()

	if be == BackendPBTree {
		pinnedPuts(t, st)
	}
	for done := false; !done; {
		rows, d := held.Next(1000)
		if msg := histRows(st, rows, 0, 0, heldRounds); msg != "" {
			t.Fatalf("seed %d: the held cursor: %s", seed, msg)
		}
		heldSeen, done = heldSeen+len(rows), d
	}
	held.Close()
	// Round 0 put every flicker key, so the cursor's version holds all.
	if heldSeen != histKeys {
		t.Fatalf("seed %d: the held cursor saw %d rows, want %d", seed, heldSeen, histKeys)
	}
	for kind := 1; kind <= 3; kind++ {
		for _, k := range hot[kind] {
			tid, ok := st.Get(k)
			if msg := histCheck(core.Pair{Key: k, TID: tid}, ok, rounds, rounds); msg != "" {
				t.Fatalf("seed %d: at the end: %s", seed, msg)
			}
		}
	}
	if be == BackendPBTree {
		// The cursor is closed: one more write per shard and nothing
		// waits for a reader any more.
		for k := core.Key(1); k <= 64; k++ {
			if err := st.Put(8*histKeys+8*k, 1); err != nil {
				t.Fatal(err)
			}
		}
		for i, sh := range st.Stats().Shards {
			if sh.Retired != 0 {
				t.Errorf("shard %d: %d blocks still retired after the last cursor closed and a write followed", i, sh.Retired)
			}
		}
	}
}

// pinnedPuts is the collapse that cannot recur (PR 14: a cursor beside
// 8 k writes/s made every batch rebuild its shard): with a cursor
// pinning a version of every shard, 50 000 single-put batches each
// copy no more than their path, and the arenas grow by no more than
// the blocks copied and split. The cursor closes on return.
func pinnedPuts(t *testing.T, st *Store) {
	// The cursor of the whole run pins the trees the Compact replaced;
	// this one pins the trees now being written.
	c, err := st.OpenCursor(0, core.MaxKey)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := st.Stats().Shards
	prev := slices.Clone(before)
	for i := 0; i < 50_000; i++ {
		k := core.Key(8*(1+i*7919%histKeys) + 1 + i%7)
		if err := st.Put(k, 1); err != nil {
			t.Fatal(err)
		}
		s := st.Stats().Shards[st.ShardOf(k)]
		p := prev[st.ShardOf(k)]
		if copied := s.Copied - p.Copied; copied > uint64(s.Height) {
			t.Fatalf("put %d copied %d blocks in a tree of height %d", i, copied, s.Height)
		}
		if grown := s.Blocks - p.Blocks; grown > 2*s.Height+1 {
			t.Fatalf("put %d grew the arena by %d blocks (height %d)", i, grown, s.Height)
		}
		prev[st.ShardOf(k)] = s
	}
	for i, s := range st.Stats().Shards {
		if grown, made := s.Blocks-before[i].Blocks, int(s.Copied-before[i].Copied)+s.Count-before[i].Count; grown > made {
			t.Errorf("shard %d: the arena grew by %d blocks for %d copies and at most %d splits", i, grown, s.Copied-before[i].Copied, s.Count-before[i].Count)
		}
		if s.Retired == 0 {
			t.Errorf("shard %d: nothing retired with a cursor pinning its first version", i)
		}
	}
}
