package serve

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pbtree/internal/core"
	"pbtree/internal/workload"
)

// TestOpenRejectsUnsortedSeed: on both engines, in memory or durable,
// an unsorted or duplicate seed is an error from Open itself, and a
// durable store refused so creates no directory.
func TestOpenRejectsUnsortedSeed(t *testing.T) {
	seeds := map[string][]core.Key{
		"unsorted":  {40, 10, 30, 20},
		"duplicate": {10, 20, 20, 30},
	}
	for _, be := range []string{BackendPBTree, BackendLSM} {
		for _, durable := range []bool{false, true} {
			for name, keys := range seeds {
				seed := make([]core.Pair, len(keys))
				for i, k := range keys {
					seed[i] = core.Pair{Key: k, TID: core.TID(k)}
				}
				cfg := StoreConfig{Shards: 1, Backend: be}
				dir := filepath.Join(t.TempDir(), "data")
				if durable {
					cfg.Durable = &DurableConfig{Dir: dir}
				}
				st, err := Open(cfg, seed)
				if err == nil {
					st.Close()
					t.Fatalf("%s durable=%v: Open accepted the %s seed %v", be, durable, name, keys)
				}
				if _, serr := os.Stat(dir); !errors.Is(serr, os.ErrNotExist) {
					t.Fatalf("%s durable=%v: a refused Open left %s behind (%v)", be, durable, dir, serr)
				}
			}
		}
	}
}

// TestShardOfMapping: the shard of a key is the splitmix64 hash modulo
// the shard count, whether the count is a power of two or not, so a
// durable directory keeps every key in the shard it was written to.
func TestShardOfMapping(t *testing.T) {
	want := func(k core.Key, n int) int {
		x := uint64(k)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return int(x % uint64(n))
	}
	for n := 1; n <= 8; n++ {
		st := &Store{shards: make([]*shard, n)}
		for i := 0; i < 100_000; i++ {
			k := core.Key(uint32(i) * 2654435761)
			if got := st.ShardOf(k); got != want(k, n) {
				t.Fatalf("%d shards: ShardOf(%d) = %d, want %d", n, k, got, want(k, n))
			}
		}
	}
}

// TestOpenAllocates: opening a store bulkloads every shard from the
// caller's seed in place. What Open and WaitReady allocate is the
// trees' blocks, one shard byte per pair and a fixed slack (the shard
// queues' buffers, 115 KB each, and the trees' level bookkeeping) — not
// a copy of the seed, 8 bytes a pair.
func TestOpenAllocates(t *testing.T) {
	const n = 1 << 20
	seed := workload.SortedPairs(n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st, err := Open(StoreConfig{Shards: 2}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WaitReady(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	defer st.Close()
	blockBytes := st.cfg.Tree.Width * st.cfg.Tree.Mem.Config().LineSize
	blocks := 0
	for _, s := range st.Stats().Shards {
		blocks += s.Blocks
	}
	got := int(after.TotalAlloc - before.TotalAlloc)
	if limit := blocks*blockBytes + n + 1<<20; got > limit {
		t.Fatalf("Open of %d pairs allocated %d bytes; the trees' %d blocks are %d bytes, the limit %d",
			n, got, blocks, blocks*blockBytes, limit)
	}
	if st.Len() != n {
		t.Fatalf("Len = %d, want %d", st.Len(), n)
	}
}

// TestEmptyShardLSN0: a shard that gets no pair of a non-empty seed is
// empty at LSN 0, so a follower catches it up from cursor 0 by its WAL
// alone, while a seeded shard sends a cursor-0 follower to checkpoint
// shipping.
func TestEmptyShardLSN0(t *testing.T) {
	const shards, empty = 4, 3
	probe := &Store{shards: make([]*shard, shards)}
	var seed []core.Pair
	var puts []core.Key
	for k := core.Key(8); len(seed) < 1000 || len(puts) < 20; k += 8 {
		if probe.ShardOf(k) != empty {
			seed = append(seed, core.Pair{Key: k, TID: core.TID(k / 8)})
		} else if len(puts) < 20 {
			puts = append(puts, k)
		}
	}
	st, err := Open(StoreConfig{Shards: shards, Durable: &DurableConfig{FS: NewMemFS()}}, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.WaitReady(); err != nil {
		t.Fatal(err)
	}
	for _, k := range puts {
		if err := st.Put(k, core.TID(k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := st.WALTail(0, 0, 1<<20); !errors.As(err, new(WALRetiredError)) {
		t.Fatalf("a seeded shard's WAL from cursor 0: %v, want WALRetiredError", err)
	}
	frames, recs, err := st.WALTail(empty, 0, 1<<20)
	if err != nil || recs != uint64(len(puts)) {
		t.Fatalf("the empty shard's WAL from cursor 0: %d records, %v; want %d", recs, err, len(puts))
	}

	f, err := Open(StoreConfig{Shards: shards, Replica: true, Durable: &DurableConfig{FS: NewMemFS()}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.ReplicaApply(empty, st.Epoch(), 1, frames); err != nil {
		t.Fatal(err)
	}
	for _, k := range puts {
		if tid, ok := f.Get(k); !ok || tid != core.TID(k) {
			t.Fatalf("follower Get(%d) = (%d, %v) after catching up from cursor 0", k, tid, ok)
		}
	}
}
