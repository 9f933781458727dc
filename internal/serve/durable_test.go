package serve

import (
	"errors"
	"io"
	"path"
	"strings"
	"testing"
	"time"

	"pbtree/internal/backend"
	"pbtree/internal/core"
	"pbtree/internal/obs"
	"pbtree/internal/workload"
)

// openDurable opens a 1-shard durable store on fs, failing the test on
// any open or recovery error.
func openDurable(t *testing.T, fs *MemFS, seed []core.Pair, every int) *Store {
	t.Helper()
	st, err := Open(StoreConfig{
		Shards:  1,
		Durable: &DurableConfig{FS: fs, CheckpointEvery: every},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WaitReady(); err != nil {
		t.Fatal(err)
	}
	return st
}

// failDirFS fails the creation of one directory, so that the shard it
// belongs to fails its recovery and the others recover.
type failDirFS struct {
	FS
	dir string
}

func (f failDirFS) MkdirAll(dir string) error {
	if dir == f.dir {
		return errors.New("injected: no directory")
	}
	return f.FS.MkdirAll(dir)
}

// TestScanShardUnavailable: with one shard's recovery failed, SCAN
// answers ERR naming the shard, as SCANOPEN does — not OK with no rows,
// which would read as an empty range of the healthy shards too.
func TestScanShardUnavailable(t *testing.T) {
	st, err := Open(StoreConfig{Shards: 2, Durable: &DurableConfig{FS: failDirFS{NewMemFS(), shardDirName(1)}}},
		workload.SortedPairs(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.WaitReady(); err == nil {
		t.Fatal("shard 1 recovered without its directory")
	}
	srv := NewServer(st, ServerConfig{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(2 * time.Second)
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, req := range []*Request{
		{Op: OpScan, Start: 0, End: core.MaxKey, Limit: 100},
		{Op: OpScanOpen, Start: 0, End: core.MaxKey},
	} {
		rs, err := cl.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Status != StatusErr || !strings.Contains(rs.Err, "shard 1 unavailable") {
			t.Errorf("op %d answered status %d %q, want ERR naming shard 1", req.Op, rs.Status, rs.Err)
		}
	}
}

func pairsEqual(a, b []core.Pair) bool {
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

func TestDurableReopenRoundTrip(t *testing.T) {
	fs := NewMemFS()
	metrics := obs.NewMetrics()
	st, err := Open(StoreConfig{
		Shards:  2,
		Metrics: metrics,
		Durable: &DurableConfig{FS: fs},
	}, []core.Pair{{Key: 8, TID: 1}, {Key: 16, TID: 2}, {Key: 24, TID: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WaitReady(); err != nil {
		t.Fatal(err)
	}
	for _, rs := range st.Recovery() {
		if !rs.Bootstrapped {
			t.Fatalf("fresh dir: shard %d not bootstrapped: %+v", rs.Shard, rs)
		}
	}
	if err := st.Put(32, 4); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(16, 20); err != nil { // overwrite
		t.Fatal(err)
	}
	if err := st.Delete(8); err != nil {
		t.Fatal(err)
	}
	want := st.Dump()
	preVer := st.Stats()
	st.Close()

	// Reopen with a different seed: the directory must win.
	st2, err := Open(StoreConfig{
		Shards:  2,
		Metrics: metrics,
		Durable: &DurableConfig{FS: fs},
	}, []core.Pair{{Key: 999992, TID: 7}})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if err := st2.WaitReady(); err != nil {
		t.Fatal(err)
	}
	replayed := uint64(0)
	for _, rs := range st2.Recovery() {
		if rs.Bootstrapped {
			t.Fatalf("existing dir: shard %d bootstrapped (seed overwrote recovery): %+v", rs.Shard, rs)
		}
		replayed += rs.Replayed
	}
	if replayed != 3 {
		t.Fatalf("replayed %d records, want 3 (put, overwrite, delete)", replayed)
	}
	if got := st2.Dump(); !pairsEqual(got, want) {
		t.Fatalf("reopen contents = %v, want %v", got, want)
	}
	if tid, ok := st2.Get(16); !ok || tid != 20 {
		t.Fatalf("Get(16) = %d, %v after reopen", tid, ok)
	}
	if _, ok := st2.Get(8); ok {
		t.Fatal("deleted key 8 resurrected by reopen")
	}
	// Published versions never move backwards across a restart.
	for i, s := range st2.Stats().Shards {
		if s.Version < preVer.Shards[i].Version {
			t.Fatalf("shard %d version %d < pre-close %d", i, s.Version, preVer.Shards[i].Version)
		}
	}
	d := metrics.Values("pbtree_")
	if d["recoveries"] != 4 || d["wal_replayed_records"] != 3 || d["wal_appends"] == 0 || d["fsyncs"] == 0 || d["checkpoints"] == 0 {
		t.Fatalf("durability counters off: %+v", d)
	}
}

func TestDurableCheckpointRotationAndPrune(t *testing.T) {
	fs := NewMemFS()
	st := openDurable(t, fs, nil, 4)
	for i := 1; i <= 20; i++ {
		if err := st.Put(core.Key(8*i), core.TID(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := st.Dump()
	st.Close()

	// 20 synchronous puts with CheckpointEvery=4 rotate the segment at
	// LSNs 4, 8, 12, 16 and 20. Four 32-byte records outweigh the image
	// (24 + 8 bytes a pair) up to 13 pairs, so the 12-pair checkpoint at
	// LSN 12 is followed by one at 16, but the 16-pair one at 16 is not
	// followed at 20. The pruner must leave exactly the newest
	// checkpoint, the segment it does not cover and the current one.
	names, err := fs.ReadDir("shard-0000")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{ckptName(16), walSegName(17), walSegName(21)}; strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("after rotation, shard dir = %v, want %v", names, want)
	}

	st2 := openDurable(t, fs, nil, 4)
	defer st2.Close()
	rs := st2.Recovery()[0]
	if rs.CheckpointLSN != 16 || rs.Replayed != 4 || rs.Pairs != 20 {
		t.Fatalf("recovery from checkpoint: %+v", rs)
	}
	if got := st2.Dump(); !pairsEqual(got, want) {
		t.Fatalf("contents after rotation reopen = %v, want %v", got, want)
	}
}

func TestDurableWALFaultFailStop(t *testing.T) {
	fs := NewMemFS()
	st := openDurable(t, fs, nil, 1<<20)
	for i := 1; i <= 5; i++ {
		if err := st.Put(core.Key(8*i), core.TID(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Arm a short write: the next WAL append tears mid-record.
	fs.SetWriteBudget(7, true)
	if err := st.Put(48, 6); err == nil {
		t.Fatal("put with torn WAL write succeeded")
	}
	// Fail-stop: the shard accepts no further writes...
	if err := st.Put(56, 7); err == nil {
		t.Fatal("put after WAL failure succeeded")
	}
	// ...but keeps serving reads from the last good snapshot.
	if tid, ok := st.Get(40); !ok || tid != 5 {
		t.Fatalf("Get(40) after fail-stop = %d, %v", tid, ok)
	}
	if e := st.Stats().Shards[0].DurableErr; !strings.Contains(e, "injected") {
		t.Fatalf("Stats.DurableErr = %q, want injected failure", e)
	}
	st.Close()

	// Recovery truncates the torn record and keeps every acked write.
	fs.SetWriteBudget(-1, false)
	st2 := openDurable(t, fs, nil, 1<<20)
	defer st2.Close()
	rs := st2.Recovery()[0]
	if rs.TornBytes == 0 {
		t.Fatalf("recovery saw no torn tail: %+v", rs)
	}
	for i := 1; i <= 5; i++ {
		if tid, ok := st2.Get(core.Key(8 * i)); !ok || tid != core.TID(i) {
			t.Fatalf("acked key %d lost after torn-tail recovery", 8*i)
		}
	}
	if _, ok := st2.Get(48); ok {
		t.Fatal("unacked torn write surfaced after recovery")
	}
}

func TestDurableManifestShardMismatch(t *testing.T) {
	fs := NewMemFS()
	st := openDurable(t, fs, nil, 0)
	st.Close()
	_, err := Open(StoreConfig{Shards: 3, Durable: &DurableConfig{FS: fs}}, nil)
	if err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("reopen with different shard count: err = %v", err)
	}
}

func TestDurableOSFS(t *testing.T) {
	dir := t.TempDir()
	cfg := StoreConfig{Shards: 2, Durable: &DurableConfig{Dir: dir}}
	st, err := Open(cfg, []core.Pair{{Key: 8, TID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WaitReady(); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 40; i++ {
		if err := st.Put(core.Key(8*i), core.TID(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := st.Dump()
	st.Close()

	st2, err := Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if err := st2.WaitReady(); err != nil {
		t.Fatal(err)
	}
	if got := st2.Dump(); !pairsEqual(got, want) {
		t.Fatalf("OS round trip: got %d pairs, want %d", len(got), len(want))
	}
}

func TestMemFSCrashSemantics(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("sync"))
	f.Sync()
	f.Write([]byte("ed"))
	f.Close()
	if err := fs.Rename("a", "b"); err != nil {
		t.Fatal(err)
	}

	end := fs.CrashPoints()
	// Write-through disk at the end: everything survives, under the
	// final name.
	all := fs.CrashAt(end, false)
	if b, err := all.ReadFile("b"); err != nil || string(b) != "synced" {
		t.Fatalf("full replay: %q, %v", b, err)
	}
	// Volatile cache lost: only the synced prefix survives.
	lost := fs.CrashAt(end, true)
	if b, err := lost.ReadFile("b"); err != nil || string(b) != "sync" {
		t.Fatalf("lose-unsynced replay: %q, %v", b, err)
	}
	// Before the rename's crash point the file still has its old name.
	pre := fs.CrashAt(end-1, false)
	if _, err := pre.ReadFile("b"); err == nil {
		t.Fatal("rename visible before its crash point")
	}
	if b, err := pre.ReadFile("a"); err != nil || string(b) != "synced" {
		t.Fatalf("pre-rename replay: %q, %v", b, err)
	}
	// Mid-write crash keeps a byte prefix (point 3 = the create op
	// plus two bytes of the first write).
	mid := fs.CrashAt(3, false)
	if b, err := mid.ReadFile("a"); err != nil || string(b) != "sy" {
		t.Fatalf("mid-write replay: %q, %v", b, err)
	}
}

func TestMemFSWriteBudget(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("x")
	fs.SetWriteBudget(3, true)
	n, err := f.Write([]byte("hello"))
	if n != 3 || !errors.Is(err, ErrInjected) {
		t.Fatalf("short write: n=%d err=%v", n, err)
	}
	if _, err := f.Write([]byte("more")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after failure: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync after failure: %v", err)
	}
	if _, err := fs.Create("y"); !errors.Is(err, ErrInjected) {
		t.Fatalf("create after failure: %v", err)
	}
	if b, _ := fs.ReadFile("x"); string(b) != "hel" {
		t.Fatalf("torn sector contents %q", b)
	}
}

// TestCheckpointCadence: a pbtree shard checkpoints when the WAL since
// its last checkpoint holds CheckpointEvery records and at least as
// many bytes as that checkpoint wrote — not a record before, and in
// the batch that gets there — while its segment still rotates every
// CheckpointEvery records, on the writer path and on the follower
// apply path. The shard starts from an n-pair seed, whose image is its
// first checkpoint.
func TestCheckpointCadence(t *testing.T) {
	const n, every = 1000, 4
	seed := workload.SortedPairs(n)
	image := core.EncodedSize(n)
	for _, replica := range []bool{false, true} {
		name := map[bool]string{false: "writer", true: "follower"}[replica]
		t.Run(name, func(t *testing.T) {
			m, fs := obs.NewMetrics(), NewMemFS()
			st, err := Open(StoreConfig{
				Shards:  1,
				Replica: replica,
				Metrics: m,
				Durable: &DurableConfig{FS: fs, CheckpointEvery: every},
			}, seed)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := st.WaitReady(); err != nil {
				t.Fatal(err)
			}
			if got := m.Load(obs.CheckpointBytes); got != image {
				t.Fatalf("bootstrap checkpoint wrote %d bytes, want the %d of an %d-pair image", got, image, n)
			}
			ckpts, walBase := m.Load(obs.Checkpoints), m.Load(obs.WALBytes)
			key := seed[n-1].Key
			for i := 1; ; i++ {
				key += 8
				if replica {
					frame := appendWALRecord(nil, uint64(i), []core.Pair{{Key: key, TID: 1}}, nil)
					if err := st.ReplicaApply(0, st.Epoch(), uint64(i), frame); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := st.Put(key, 1); err != nil {
						t.Fatal(err)
					}
					// The writer checkpoints after the ack; a request that
					// goes through the writer waits for it.
					writerBarrier(st, 0)
				}
				due := i >= every && m.Load(obs.WALBytes)-walBase >= image
				done := m.Load(obs.Checkpoints) - ckpts
				segs, err := listWALSegs(fs, shardDirName(0))
				if err != nil {
					t.Fatal(err)
				}
				if !due && done != 0 {
					t.Fatalf("checkpointed at record %d with %d WAL bytes against a %d-byte image", i, m.Load(obs.WALBytes)-walBase, image)
				}
				if !due && len(segs) != i/every+1 {
					t.Fatalf("after record %d the shard holds %d WAL segments, want one every %d records: %d", i, len(segs), every, i/every+1)
				}
				if due {
					if len(segs) != 1 || segs[0] != uint64(i)+1 {
						t.Fatalf("after the checkpoint at record %d the shard holds WAL segments %v, want only %d", i, segs, i+1)
					}
					if done != 1 {
						t.Fatalf("record %d brought the segment to %d bytes: %d checkpoints, want 1", i, m.Load(obs.WALBytes)-walBase, done)
					}
					if got, want := m.Load(obs.CheckpointBytes)-image, core.EncodedSize(n+i); got != want {
						t.Fatalf("second checkpoint wrote %d bytes, want %d", got, want)
					}
					break
				}
			}
		})
	}
}

// writerBarrier returns once shard's writer has finished everything
// queued before it: a follower-only mutation goes through the writer
// of a primary and is refused there, changing nothing.
func writerBarrier(st *Store, shard int) {
	done := make(chan result, 1)
	if st.enqueue(st.shards[shard], mutation{repl: &replApply{}, done: done}) == nil {
		<-done
	}
}

// failOpenFS fails every Open of one file, as a segment whose inode
// the file system cannot read.
type failOpenFS struct {
	*MemFS
	name string
}

func (f failOpenFS) Open(name string) (File, error) {
	if name == f.name {
		return nil, errors.New("injected: unreadable file")
	}
	return f.MemFS.Open(name)
}

// TestReplayUnopenableSegment: a WAL segment recovery cannot open
// fails the shard instead of being skipped — skipping it made the next
// segment's first LSN look like a gap, and that segment was truncated
// with acknowledged records in it. Reopened with the file readable
// again, the store recovers every write.
func TestReplayUnopenableSegment(t *testing.T) {
	fs := NewMemFS()
	open := func(fsys FS) (*Store, error) {
		st, err := Open(StoreConfig{
			Shards:  1,
			Durable: &DurableConfig{FS: fsys, CheckpointEvery: 1 << 20, WALRetain: 1},
		}, nil)
		if err != nil {
			return nil, err
		}
		return st, st.WaitReady()
	}
	// Two sessions of five puts: the reopen between them folds the first
	// five into a checkpoint and keeps their segment (WALRetain).
	var want []core.Pair
	for s := 0; s < 2; s++ {
		st, err := open(fs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 5; i++ {
			k := core.Key(8 * (5*s + i))
			if err := st.Put(k, core.TID(k)); err != nil {
				t.Fatal(err)
			}
		}
		want = st.Dump()
		st.Close()
	}
	dir := shardDirName(0)
	// Damage the newest checkpoint: recovery falls back to replaying
	// both segments from LSN 1.
	if err := backend.WriteAtomic(fs, path.Join(dir, ckptName(5)), func(w io.Writer) error {
		_, err := w.Write([]byte("not a checkpoint"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := open(failOpenFS{fs, path.Join(dir, walSegName(1))}); err == nil {
		t.Fatal("recovery skipped a segment it could not open")
	}
	st, err := open(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rs := st.Recovery()[0]; rs.Replayed != 10 || rs.TornBytes != 0 {
		t.Fatalf("recovery after the failed open: %+v", rs)
	}
	if got := st.Dump(); !pairsEqual(got, want) {
		t.Fatalf("contents = %v, want %v", got, want)
	}
}

// TestReplayRemovesSegmentsPastStop: a replay that stops at a corrupt
// record must not leave the segments after it on disk. The writer
// starts a new timeline where replay stopped; once that timeline's
// LSNs reach a stale segment's, the next recovery replayed the stale
// records over acknowledged ones.
func TestReplayRemovesSegmentsPastStop(t *testing.T) {
	fs := NewMemFS()
	// A checkpoint this large keeps the size rule from folding the log,
	// so segments rotate every four records and stay on disk.
	st := openDurable(t, fs, workload.SortedPairs(100_000), 4)
	for i := 1; i <= 12; i++ { // LSNs 1..12: wal-1, wal-5, wal-9
		if err := st.Put(core.Key(5_000_000+i), core.TID(i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Corrupt the third record of wal-5 (LSN 7): replay stops after
	// LSN 6, with wal-9 (LSNs 9..12) still ahead of it.
	seg := path.Join(shardDirName(0), walSegName(5))
	blob, err := fs.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	var rec walRecord
	off := 0
	for r := 0; r < 2; r++ {
		n, err := rec.decode(blob[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += n
	}
	blob[off+walHeaderSize] ^= 0xff
	if err := backend.WriteAtomic(fs, seg, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	st = openDurable(t, fs, nil, 4)
	if rs := st.Recovery()[0]; rs.LastLSN != 6 || rs.TornBytes == 0 {
		t.Fatalf("recovery past the corrupt record: %+v", rs)
	}
	for i := 1; i <= 8; i++ { // LSNs 7..14, over where wal-9 stood
		if err := st.Put(core.Key(6_000_000+i), core.TID(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := st.Dump()
	st.Close()

	st = openDurable(t, fs, nil, 4)
	defer st.Close()
	if got := st.Dump(); !pairsEqual(got, want) {
		for i := 7; i <= 12; i++ {
			if _, ok := st.Get(core.Key(5_000_000 + i)); ok {
				t.Errorf("key %d, lost to the corruption, came back", 5_000_000+i)
			}
		}
		for i := 1; i <= 8; i++ {
			if _, ok := st.Get(core.Key(6_000_000 + i)); !ok {
				t.Errorf("acknowledged key %d lost", 6_000_000+i)
			}
		}
		t.Fatalf("contents after the second reopen differ from the acknowledged writes (%d pairs, want %d)", len(got), len(want))
	}
}
