package serve

import (
	"bytes"
	"sync/atomic"
	"testing"

	"pbtree/internal/core"
	"pbtree/internal/workload"
)

// treeStream is how snapshot shipping used to encode a shard: bulkload
// a throwaway tree from the shard's pairs and write it.
func treeStream(t *testing.T, st *Store, pairs []core.Pair) []byte {
	t.Helper()
	tr, err := core.New(st.cfg.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Bulkload(pairs, fill); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotShardStream: on both engines, the stream a shard ships is
// byte for byte the stream of a tree built from its pairs, and loads
// back to them.
func TestSnapshotShardStream(t *testing.T) {
	for _, be := range []string{BackendPBTree, BackendLSM} {
		t.Run(be, func(t *testing.T) {
			st, err := Open(StoreConfig{Shards: 2, Backend: be, Durable: &DurableConfig{FS: NewMemFS()}},
				workload.SortedPairs(20_000))
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := st.WaitReady(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 500; i++ {
				if err := st.Put(core.Key(16*i+3), core.TID(i)); err != nil {
					t.Fatal(err)
				}
				if err := st.Delete(core.Key(8 * (i + 1))); err != nil {
					t.Fatal(err)
				}
			}
			for shard := range st.shards {
				lsn, data, err := st.SnapshotShard(shard)
				if err != nil {
					t.Fatal(err)
				}
				s := st.shards[shard].be.Snapshot()
				pairs := s.AppendPairs(nil)
				s.Release()
				if want := treeStream(t, st, pairs); !bytes.Equal(data, want) {
					t.Fatalf("shard %d at LSN %d: shipped %d bytes, the tree stream is %d", shard, lsn, len(data), len(want))
				}
				back, err := core.Load(bytes.NewReader(data), st.cfg.Tree.Mem, fill)
				if err != nil {
					t.Fatal(err)
				}
				if !pairsEqual(back.AppendPairs(nil), pairs) {
					t.Fatalf("shard %d: the shipped stream does not load back to its pairs", shard)
				}
			}
		})
	}
}

// TestWALTailLeavesTmp: WALTail runs beside the shard writer, so it
// must not reclaim a .tmp — it may be the checkpoint being written.
func TestWALTailLeavesTmp(t *testing.T) {
	fs := NewMemFS()
	st := openDurable(t, fs, nil, 0)
	defer st.Close()
	for i := 1; i <= 5; i++ {
		if err := st.Put(core.Key(i), core.TID(i)); err != nil {
			t.Fatal(err)
		}
	}
	tmp := shardDirName(0) + "/" + ckptName(99) + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, n, err := st.WALTail(0, 0, 1<<20); err != nil || n == 0 {
		t.Fatalf("WALTail = %d records, %v", n, err)
	}
	if _, err := fs.Open(tmp); err != nil {
		t.Fatalf("WALTail removed the writer's %s: %v", tmp, err)
	}
}

// TestFollowerCursorReadable: a follower's replication cursor never
// runs ahead of what a read there sees. While single-put frames go
// through ReplicaApply, a reader checks that the key of the record at
// ReplicaCursor is readable — the cursor is what STATUS, /replz and a
// synchronous primary's ack count as applied.
func TestFollowerCursorReadable(t *testing.T) {
	for _, be := range []string{BackendPBTree, BackendLSM} {
		t.Run(be, func(t *testing.T) {
			st, err := Open(StoreConfig{Shards: 1, Backend: be, Replica: true, Durable: &DurableConfig{FS: NewMemFS()}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := st.WaitReady(); err != nil {
				t.Fatal(err)
			}
			const n = 20_000
			var done atomic.Bool
			stale := make(chan int, 1)
			go func() {
				bad := 0
				for !done.Load() {
					if c := st.ReplicaCursor(0); c > 0 {
						if _, ok := st.Get(core.Key(c)); !ok {
							bad++
						}
					}
				}
				stale <- bad
			}()
			for i := uint64(1); i <= n; i++ {
				frame := appendWALRecord(nil, i, []core.Pair{{Key: core.Key(i), TID: core.TID(i)}}, nil)
				if err := st.ReplicaApply(0, st.Epoch(), i, frame); err != nil {
					done.Store(true)
					t.Fatal(err)
				}
			}
			done.Store(true)
			if bad := <-stale; bad > 0 {
				t.Fatalf("%d reads missed the record at the follower's cursor", bad)
			}
		})
	}
}
