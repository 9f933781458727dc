package serve

import (
	"sort"
	"testing"

	"pbtree/internal/core"
	"pbtree/internal/obs"
)

// shardKeys returns n distinct keys owned by the given shard, probing
// the key space in order (keys are multiples of 8, the workload
// convention).
func shardKeys(st *Store, shard, n int, skip map[core.Key]bool) []core.Key {
	keys := make([]core.Key, 0, n)
	for k := core.Key(8); len(keys) < n; k += 8 {
		if st.ShardOf(k) == shard && !skip[k] {
			keys = append(keys, k)
			skip[k] = true
		}
	}
	return keys
}

// crashScript drives a deterministic mutation history against a
// 2-shard durable store on a MemFS and records, per shard, the exact
// expected contents after every acknowledged mutation plus the crash
// point at which each ack fired.
type crashScript struct {
	hist [][][]core.Pair // hist[s][j] = sorted contents after j acked mutations
	acks [][]int64       // acks[s][j] = journal crash point when ack j+1 fired
}

// run executes the scripted workload: per shard an interleaved stream
// of multi-key atomic batches, overwrites of a hot key, deletes and
// re-inserts, so torn or reordered replay cannot go unnoticed.
func runCrashScript(t *testing.T, st *Store, fs *MemFS, ops int) *crashScript {
	t.Helper()
	const shards = 2
	skip := map[core.Key]bool{}
	fresh := [shards][]core.Key{}
	hot := [shards]core.Key{}
	for s := 0; s < shards; s++ {
		ks := shardKeys(st, s, ops*2+1, skip)
		hot[s], fresh[s] = ks[0], ks[1:]
	}
	model := [shards]map[core.Key]core.TID{{}, {}}
	sc := &crashScript{
		hist: make([][][]core.Pair, shards),
		acks: make([][]int64, shards),
	}
	snapshotModel := func(s int) []core.Pair {
		ps := make([]core.Pair, 0, len(model[s]))
		for k, tid := range model[s] {
			ps = append(ps, core.Pair{Key: k, TID: tid})
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].Key < ps[j].Key })
		return ps
	}
	for s := 0; s < shards; s++ {
		sc.hist[s] = append(sc.hist[s], snapshotModel(s)) // state 0: empty
	}
	var dead [shards][]core.Key
	for i := 0; i < ops; i++ {
		s := i % shards
		switch (i / shards) % 4 {
		case 0: // atomic multi-key batch (single shard → one WAL record)
			batch := []core.Pair{}
			for j := 0; j < 3; j++ {
				k := fresh[s][0]
				fresh[s] = fresh[s][1:]
				batch = append(batch, core.Pair{Key: k, TID: core.TID(100 + i)})
				model[s][k] = core.TID(100 + i)
			}
			if err := st.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
		case 1: // overwrite the shard's hot key
			if err := st.Put(hot[s], core.TID(i)); err != nil {
				t.Fatal(err)
			}
			model[s][hot[s]] = core.TID(i)
		case 2: // delete a previously inserted key (smallest non-hot,
			// so the script is deterministic)
			var k core.Key
			for k2 := range model[s] {
				if k2 != hot[s] && (k == 0 || k2 < k) {
					k = k2
				}
			}
			if k == 0 {
				k = hot[s]
			}
			if err := st.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(model[s], k)
			dead[s] = append(dead[s], k)
		default: // re-insert a deleted key (put/del interleave coverage)
			k := fresh[s][0]
			if len(dead[s]) > 0 {
				k = dead[s][0]
				dead[s] = dead[s][1:]
			} else {
				fresh[s] = fresh[s][1:]
			}
			if err := st.Put(k, core.TID(1000+i)); err != nil {
				t.Fatal(err)
			}
			model[s][k] = core.TID(1000 + i)
		}
		sc.hist[s] = append(sc.hist[s], snapshotModel(s))
		sc.acks[s] = append(sc.acks[s], fs.CrashPoints())
	}
	return sc
}

// shardContents splits a store dump by owning shard.
func shardContents(st *Store) [][]core.Pair {
	out := make([][]core.Pair, st.Shards())
	for _, p := range st.Dump() {
		s := st.ShardOf(p.Key)
		out[s] = append(out[s], p)
	}
	return out
}

// crashPoints selects which journal prefixes to test: every point when
// the journal is small, otherwise a stride plus every ack boundary and
// its predecessor (the points where durability is decided).
func crashPoints(end int64, sc *crashScript) []int64 {
	seen := map[int64]bool{}
	var pts []int64
	add := func(p int64) {
		if p >= 0 && p <= end && !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	stride := int64(1)
	if end > 6000 {
		stride = end/6000 + 1
	}
	for p := int64(0); p <= end; p += stride {
		add(p)
	}
	add(end)
	for _, acks := range sc.acks {
		for _, a := range acks {
			add(a - 1)
			add(a)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	return pts
}

// TestCrashRecoveryEveryPrefix is the power-cut property test: a
// durable store runs a scripted workload on a journaling MemFS, and
// then for (almost) every byte-granular prefix of what reached the
// disk, a fresh store is opened on the crashed filesystem and must
// recover a prefix-consistent state — exactly the contents after some
// number j of acknowledged mutations (so batches are atomic and replay
// order is the commit order), with j covering every mutation acked
// before the cut (no acked write lost under FsyncAlways, even when the
// disk's volatile cache dies too), and the shard's published version
// equal to j+1 (versions stay monotonic across the crash).
func TestCrashRecoveryEveryPrefix(t *testing.T) {
	fs := NewMemFS()
	m := obs.NewMetrics()
	cfg := StoreConfig{
		Shards:  2,
		Metrics: m,
		Durable: &DurableConfig{FS: fs, Fsync: FsyncAlways, CheckpointEvery: 8},
	}
	st, err := Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WaitReady(); err != nil {
		t.Fatal(err)
	}
	folds := m.Load(obs.Checkpoints) // each shard's empty bootstrap image
	sc := runCrashScript(t, st, fs, 36)
	st.Close()
	end := fs.CrashPoints()
	// The cut must land inside checkpoints and rotations too, not only
	// inside WAL appends: the journal holds at least two of them.
	if n := m.Load(obs.Checkpoints) - folds; n < 2 {
		t.Fatalf("the script's journal holds %d checkpoint publications, want >= 2", n)
	}

	pts := crashPoints(end, sc)
	t.Logf("journal holds %d crash points and %d checkpoints, testing %d", end, m.Load(obs.Checkpoints)-folds, len(pts))
	for _, p := range pts {
		crashed := fs.CrashAt(p, true) // volatile disk cache lost too
		st2, err := Open(StoreConfig{
			Shards:  2,
			Durable: &DurableConfig{FS: crashed, Fsync: FsyncAlways, CheckpointEvery: 8},
		}, nil)
		if err != nil {
			t.Fatalf("crash point %d: reopen: %v", p, err)
		}
		if err := st2.WaitReady(); err != nil {
			t.Fatalf("crash point %d: recovery: %v", p, err)
		}
		got := shardContents(st2)
		stats := st2.Stats()
		for s := 0; s < 2; s++ {
			j := matchState(sc.hist[s], got[s])
			if j < 0 {
				t.Fatalf("crash point %d shard %d: contents %v match no acked prefix", p, s, got[s])
			}
			acked := ackedBefore(sc.acks[s], p)
			if j < acked {
				t.Fatalf("crash point %d shard %d: recovered state %d but %d mutations were acked before the cut", p, s, j, acked)
			}
			if v := stats.Shards[s].Version; v != uint64(j)+1 {
				t.Fatalf("crash point %d shard %d: version %d after recovering state %d (want %d)", p, s, v, j, j+1)
			}
		}
		st2.Close()
	}
}

// TestCrashRecoveryFsyncNever checks the weaker policy's contract: a
// crash may lose acked writes, but recovery still lands on some acked
// prefix — never a torn batch, never reordered effects.
func TestCrashRecoveryFsyncNever(t *testing.T) {
	fs := NewMemFS()
	cfg := StoreConfig{
		Shards:  2,
		Durable: &DurableConfig{FS: fs, Fsync: FsyncNever, CheckpointEvery: 8},
	}
	st, err := Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WaitReady(); err != nil {
		t.Fatal(err)
	}
	sc := runCrashScript(t, st, fs, 24)
	st.Close()
	end := fs.CrashPoints()

	for _, p := range crashPoints(end, sc) {
		crashed := fs.CrashAt(p, true)
		st2, err := Open(StoreConfig{
			Shards:  2,
			Durable: &DurableConfig{FS: crashed, Fsync: FsyncNever, CheckpointEvery: 8},
		}, nil)
		if err != nil {
			t.Fatalf("crash point %d: reopen: %v", p, err)
		}
		if err := st2.WaitReady(); err != nil {
			t.Fatalf("crash point %d: recovery: %v", p, err)
		}
		got := shardContents(st2)
		stats := st2.Stats()
		for s := 0; s < 2; s++ {
			j := matchState(sc.hist[s], got[s])
			if j < 0 {
				t.Fatalf("crash point %d shard %d: contents %v match no acked prefix", p, s, got[s])
			}
			if v := stats.Shards[s].Version; v != uint64(j)+1 {
				t.Fatalf("crash point %d shard %d: version %d after recovering state %d", p, s, v, j)
			}
		}
		st2.Close()
	}
}

// matchState returns the history index whose contents equal got, or -1.
// Mutation histories here never repeat a state (every op changes the
// contents or a TID), so the match is unique.
func matchState(hist [][]core.Pair, got []core.Pair) int {
	for j := len(hist) - 1; j >= 0; j-- {
		if pairsEqual(hist[j], got) {
			return j
		}
	}
	return -1
}

// ackedBefore counts the mutations whose ack fired at or before crash
// point p.
func ackedBefore(acks []int64, p int64) int {
	n := 0
	for _, a := range acks {
		if a <= p {
			n++
		}
	}
	return n
}
