package lsm

import (
	"path"
	"runtime"
	"strings"
	"testing"

	"pbtree/internal/backend"
	"pbtree/internal/core"
	"pbtree/internal/storage"
)

func TestMemtablePersistence(t *testing.T) {
	var root *memNode
	for k := core.Key(0); k < 100; k++ {
		root, _ = memInsert(root, k*3, core.TID(k), false)
	}
	before := memAppendRange(root, 0, ^core.Key(0), nil)
	// Overwrites, a tombstone and a fresh key against a new root must
	// leave the old root's view untouched.
	next, added := memInsert(root, 30, 999, false)
	if added {
		t.Fatalf("overwrite of key 30 reported added")
	}
	next, _ = memInsert(next, 60, 0, true)
	next, added = memInsert(next, 1, 42, false)
	if !added {
		t.Fatalf("fresh key 1 not reported added")
	}
	after := memAppendRange(root, 0, ^core.Key(0), nil)
	if len(after) != len(before) {
		t.Fatalf("old root changed size: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("old root entry %d changed: %+v -> %+v", i, before[i], after[i])
		}
	}
	if e, ok := memGet(next, 30); !ok || e.tid != 999 || e.del {
		t.Fatalf("overwrite lost: %+v %v", e, ok)
	}
	if e, ok := memGet(next, 60); !ok || !e.del {
		t.Fatalf("tombstone lost: %+v %v", e, ok)
	}
	got := memAppendRange(next, 0, ^core.Key(0), nil)
	for i := 1; i < len(got); i++ {
		if got[i].key <= got[i-1].key {
			t.Fatalf("range append out of order at %d", i)
		}
	}
	if len(got) != 101 {
		t.Fatalf("new root has %d entries, want 101", len(got))
	}
	ranged := memAppendRange(next, 30, 90, nil)
	for _, e := range ranged {
		if e.key < 30 || e.key > 90 {
			t.Fatalf("range [30,90] returned key %d", e.key)
		}
	}
}

func testEntries(n int) []memEntry {
	out := make([]memEntry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, memEntry{key: core.Key(i*7 + 1), tid: core.TID(i + 100), del: i%5 == 0})
	}
	return out
}

func TestRunRoundTrip(t *testing.T) {
	ents := testEntries(137)
	r := newRun(ents, 3, 40, 2)
	blob := encodeRun(r)
	got, err := decodeRun(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.minLSN != 3 || got.maxLSN != 40 || got.gen != 2 || got.len() != len(ents) {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i, e := range ents {
		if got.keys[i] != e.key || got.tids[i] != e.tid || got.tomb(i) != e.del {
			t.Fatalf("entry %d mismatch", i)
		}
		ge, ok := got.get(e.key)
		if !ok || ge.tid != e.tid || ge.del != e.del {
			t.Fatalf("get(%d) = %+v %v", e.key, ge, ok)
		}
	}
	if _, ok := got.get(2); ok {
		t.Fatalf("absent key found")
	}
	// Empty runs must round-trip too (checkpoint markers).
	er := newRun(nil, 5, 9, 0)
	if got, err := decodeRun(encodeRun(er)); err != nil || got.len() != 0 || got.minLSN != 5 || got.maxLSN != 9 {
		t.Fatalf("empty run round trip: %+v %v", got, err)
	}
}

func TestRunDecodeRejects(t *testing.T) {
	valid := encodeRun(newRun(testEntries(10), 1, 12, 0))
	corrupt := func(name string, mutate func([]byte) []byte) {
		blob := mutate(append([]byte(nil), valid...))
		if _, err := decodeRun(blob); err == nil {
			t.Errorf("%s: decode accepted corrupt run", name)
		}
	}
	corrupt("truncated", func(b []byte) []byte { return b[:len(b)-5] })
	corrupt("empty", func(b []byte) []byte { return nil })
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("lying count", func(b []byte) []byte { b[4] = 0xff; return b })
	corrupt("huge count", func(b []byte) []byte { b[7] = 0xff; return b })
	corrupt("bad crc", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b })
	corrupt("flipped payload byte", func(b []byte) []byte { b[40] ^= 0x01; return b })
	corrupt("trailing garbage", func(b []byte) []byte { return append(b, 0) })
}

// ackOK wraps ApplyBatch for tests that expect clean applies.
func apply(t *testing.T, b *LSM, version, lsn uint64, ws ...backend.Write) {
	t.Helper()
	acked := false
	if err := b.ApplyBatch(ws, version, lsn, func(err error) {
		acked = true
		if err != nil {
			t.Fatalf("ack error: %v", err)
		}
	}); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if !acked {
		t.Fatalf("ApplyBatch returned without acking")
	}
}

func pairs(ks ...int) []core.Pair {
	out := make([]core.Pair, 0, len(ks))
	for _, k := range ks {
		out = append(out, core.Pair{Key: core.Key(k), TID: core.TID(k + 1)})
	}
	return out
}

func keysOf(ks ...int) []core.Key {
	out := make([]core.Key, 0, len(ks))
	for _, k := range ks {
		out = append(out, core.Key(k))
	}
	return out
}

func TestLSMReadPath(t *testing.T) {
	cfg, err := Config{FlushKeys: 8, MaxRuns: 3}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	b := New(cfg, nil, "")
	if err := b.Bootstrap(backend.All(pairs(10, 20, 30, 40, 50))); err != nil {
		t.Fatal(err)
	}
	if err := b.Seal(1); err != nil {
		t.Fatal(err)
	}
	v := uint64(1)
	step := func(ws ...backend.Write) {
		v++
		apply(t, b, v, v, ws...)
	}
	// Overwrite, fresh insert, delete — across enough batches to force
	// flushes and compactions (FlushKeys 8, MaxRuns 3).
	step(backend.Write{Puts: pairs(20)})      // overwrite 20
	step(backend.Write{Puts: pairs(60, 70)})  // fresh
	step(backend.Write{Dels: []core.Key{30}}) // tombstone
	for i := 0; i < 10; i++ {                 // force flush + compaction churn
		step(backend.Write{Puts: pairs(100 + i)})
	}
	s := b.Snapshot()
	defer s.Release()
	if tid, ok := s.Get(20); !ok || tid != 21 {
		t.Fatalf("Get(20) = %d %v", tid, ok)
	}
	if _, ok := s.Get(30); ok {
		t.Fatalf("deleted key 30 still found")
	}
	if tid, ok := s.Get(104); !ok || tid != 105 {
		t.Fatalf("Get(104) = %d %v", tid, ok)
	}
	if _, ok := s.Get(31); ok {
		t.Fatalf("absent key found")
	}
	want := []int{10, 20, 40, 50, 60, 70, 100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	all := s.AppendPairs(nil)
	if len(all) != len(want) {
		t.Fatalf("AppendPairs = %d pairs, want %d: %v", len(all), len(want), all)
	}
	for i, k := range want {
		if all[i].Key != core.Key(k) || all[i].TID != core.TID(k+1) {
			t.Fatalf("AppendPairs[%d] = %+v, want key %d", i, all[i], k)
		}
	}
	run, scan := s.Run(40, 101), make([]core.Pair, 3)
	if n := run.NextPairs(scan); n != 3 || scan[0].Key != 40 || scan[1].Key != 50 || scan[2].Key != 60 || run.Done() {
		t.Fatalf("Run(40, 101) filled %d: %v, done %v", n, scan, run.Done())
	}
	if n := run.NextPairs(scan); n != 3 || scan[0].Key != 70 || scan[2].Key != 101 || !run.Done() {
		t.Fatalf("Run(40, 101) resumed with %d: %v, done %v", n, scan, run.Done())
	}
	keys := []core.Key{10, 30, 107}
	tids := make([]core.TID, 3)
	found := make([]bool, 3)
	s.GetBatch(keys, tids, found)
	if !found[0] || found[1] || !found[2] || tids[0] != 11 || tids[2] != 108 {
		t.Fatalf("GetBatch = %v %v", tids, found)
	}
}

// TestLSMScanReadsWhatItReturns: an open-ended 100-row scan of a view
// whose memtable is full walks the memtable lazily, so it allocates in
// proportion to the rows it returns, not to the memtable — each fill
// used to copy the memtable's whole range.
func TestLSMScanReadsWhatItReturns(t *testing.T) {
	cfg, err := Config{}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	b := New(cfg, nil, "")
	if err := b.Bootstrap(backend.Seed{}); err != nil {
		t.Fatal(err)
	}
	if err := b.Seal(1); err != nil {
		t.Fatal(err)
	}
	puts := make([]core.Pair, cfg.FlushKeys-1)
	for i := range puts {
		puts[i] = core.Pair{Key: core.Key(8 * (i + 1)), TID: core.TID(i + 1)}
	}
	apply(t, b, 2, 2, backend.Write{Puts: puts})
	if st := b.Stats(); st.MemKeys != len(puts) {
		t.Fatalf("memtable holds %d entries, want %d", st.MemKeys, len(puts))
	}
	s := b.Snapshot()
	buf := make([]core.Pair, 100)
	const scans = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < scans; i++ {
		if n := s.Run(8, core.MaxKey).NextPairs(buf); n != len(buf) || buf[99].Key != 800 {
			t.Fatalf("scan returned %d rows, the last key %d", n, buf[99].Key)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / scans; per > 4096 {
		t.Errorf("a 100-row scan over a %d-entry memtable allocates %d bytes, want O(rows)", len(puts), per)
	}
}

func TestLSMCountStaysExact(t *testing.T) {
	cfg, _ := Config{FlushKeys: 4, MaxRuns: 4}.WithDefaults()
	b := New(cfg, nil, "")
	b.Bootstrap(backend.All(pairs(1, 2, 3)))
	b.Seal(1)
	// Overwrites of run-resident keys must not inflate the count, and
	// deletes of run-resident (or absent) keys must not deflate it.
	apply(t, b, 2, 2, backend.Write{Puts: pairs(1, 2, 3)})
	apply(t, b, 3, 3, backend.Write{Puts: pairs(4)})
	if got := b.Snapshot().Count(); got != 4 {
		t.Fatalf("count after run-resident overwrites = %d, want 4", got)
	}
	apply(t, b, 4, 4, backend.Write{Dels: keysOf(2, 99)})
	if got := b.Snapshot().Count(); got != 3 {
		t.Fatalf("count after delete (one live, one absent) = %d, want 3", got)
	}
	apply(t, b, 5, 5, backend.Write{Dels: keysOf(2)}) // double delete
	if got := b.Snapshot().Count(); got != 3 {
		t.Fatalf("count after double delete = %d, want 3", got)
	}
	apply(t, b, 6, 6, backend.Write{Puts: pairs(2)}) // resurrect
	if got := b.Snapshot().Count(); got != 4 {
		t.Fatalf("count after resurrecting a tombstone = %d, want 4", got)
	}
	// Compact folds to one bottom run without disturbing the count.
	apply(t, b, 7, 7, backend.Write{Compact: true})
	s := b.Snapshot()
	if got := s.Count(); got != 4 {
		t.Fatalf("post-compact count %d, want 4", got)
	}
	if got := len(s.AppendPairs(nil)); got != 4 {
		t.Fatalf("post-compact pairs %d, want 4", got)
	}
	if st := b.Stats(); st.Runs != 1 || st.MemKeys != 0 {
		t.Fatalf("post-compact stats %+v, want single run, empty memtable", st)
	}
}

// reopen cycles a durable engine: Recover + Replay(nothing) + Seal.
func reopen(t *testing.T, cfg Config, fs storage.FS, dir string) (*LSM, uint64, bool) {
	t.Helper()
	b := New(cfg, fs, dir)
	last, had, err := b.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := b.Seal(last + 1); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return b, last, had
}

func TestLSMDurableRecovery(t *testing.T) {
	fs := storage.NewMemFS()
	if err := fs.MkdirAll("shard"); err != nil {
		t.Fatal(err)
	}
	cfg, _ := Config{FlushKeys: 4, MaxRuns: 3}.WithDefaults()
	b := New(cfg, fs, "shard")
	if last, had, err := b.Recover(); err != nil || had || last != 0 {
		t.Fatalf("fresh Recover = %d %v %v", last, had, err)
	}
	b.Bootstrap(backend.All(pairs(10, 20, 30)))
	b.Seal(1)
	if err := b.Checkpoint(0); err != nil { // bootstrap run [0,0]
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ { // LSNs 1..9, several flushes
		apply(t, b, uint64(i+2), uint64(i+1), backend.Write{Puts: pairs(100 + i)})
	}
	apply(t, b, 11, 10, backend.Write{Dels: []core.Key{20}}) // LSN 10
	if err := b.Checkpoint(10); err != nil {
		t.Fatal(err)
	}
	want := b.Snapshot().AppendPairs(nil)

	b2, last, had := reopen(t, cfg, fs, "shard")
	if !had || last != 10 {
		t.Fatalf("Recover = %d %v, want 10 true", last, had)
	}
	got := b2.Snapshot().AppendPairs(nil)
	if len(got) != len(want) {
		t.Fatalf("recovered %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered pair %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, ok := b2.Snapshot().Get(20); ok {
		t.Fatalf("deleted key 20 resurrected by recovery")
	}
	if got := b2.Snapshot().Count(); got != len(want) {
		t.Fatalf("recovered count %d, want exact %d", got, len(want))
	}
}

func TestLSMRecoverySupersededRuns(t *testing.T) {
	fs := storage.NewMemFS()
	fs.MkdirAll("shard")
	cfg, _ := Config{FlushKeys: 2, MaxRuns: 2}.WithDefaults()
	b := New(cfg, fs, "shard")
	b.Bootstrap(backend.All(pairs(1, 2)))
	b.Seal(1)
	b.Checkpoint(0)
	for i := 0; i < 6; i++ {
		apply(t, b, uint64(i+2), uint64(i+1), backend.Write{Puts: pairs(10 + i)})
	}
	b.Checkpoint(6)
	// Simulate a crash between a compaction's rename and its input
	// deletes: re-write every live run under a stale view by copying
	// the current files, then add a full fold that supersedes them all.
	apply(t, b, 8, 7, backend.Write{Compact: true}) // fold writes run [0,7] then deletes inputs
	names, _ := fs.ReadDir("shard")
	liveRuns := 0
	for _, n := range names {
		if strings.HasSuffix(n, ".lrun") {
			liveRuns++
		}
	}
	if liveRuns != 1 {
		t.Fatalf("after fold: %d run files, want 1", liveRuns)
	}
	// Plant a stale (superseded) run alongside: a subset interval.
	stale := encodeRun(newRun(testEntries(3), 1, 3, 0))
	f, _ := fs.Create(path.Join("shard", runName(3, 0)))
	f.Write(stale)
	f.Sync()
	f.Close()

	b2, last, _ := reopen(t, cfg, fs, "shard")
	if last != 7 {
		t.Fatalf("Recover = %d, want 7", last)
	}
	if st := b2.Stats(); st.Runs != 1 {
		t.Fatalf("superseded run survived: %+v", st)
	}
	names, _ = fs.ReadDir("shard")
	for _, n := range names {
		if n == runName(3, 0) {
			t.Fatalf("superseded run file not deleted")
		}
	}
}

func TestLSMRecoveryRejectsCorruptRun(t *testing.T) {
	fs := storage.NewMemFS()
	fs.MkdirAll("shard")
	cfg, _ := Config{}.WithDefaults()
	b := New(cfg, fs, "shard")
	b.Bootstrap(backend.All(pairs(1, 2, 3)))
	b.Seal(1)
	if err := b.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.ReadDir("shard")
	var target string
	for _, n := range names {
		if strings.HasSuffix(n, ".lrun") {
			target = path.Join("shard", n)
		}
	}
	blob, err := fs.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xff
	f, _ := fs.Create(target)
	f.Write(blob)
	f.Sync()
	f.Close()
	nb := New(cfg, fs, "shard")
	if _, _, err := nb.Recover(); err == nil {
		t.Fatalf("Recover accepted a corrupt run")
	}
}

func TestLSMRecoveryRejectsChainGap(t *testing.T) {
	fs := storage.NewMemFS()
	fs.MkdirAll("shard")
	cfg, _ := Config{FlushKeys: 2, MaxRuns: 100}.WithDefaults() // no compaction
	b := New(cfg, fs, "shard")
	b.Bootstrap(backend.All(pairs(1)))
	b.Seal(1)
	b.Checkpoint(0)
	for i := 0; i < 6; i++ {
		apply(t, b, uint64(i+2), uint64(i+1), backend.Write{Puts: pairs(10 + i)})
	}
	b.Checkpoint(6)
	// Delete a middle run: the chain [0,0],[1,..],..,[..,6] breaks.
	names, _ := fs.ReadDir("shard")
	removed := false
	for _, n := range names {
		if max, _, ok := parseRunName(n); ok && max > 0 && max < 6 {
			fs.Remove(path.Join("shard", n))
			removed = true
			break
		}
	}
	if !removed {
		t.Fatalf("no middle run to remove; files: %v", names)
	}
	nb := New(cfg, fs, "shard")
	if _, _, err := nb.Recover(); err == nil {
		t.Fatalf("Recover accepted a broken run chain")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := (Config{FlushKeys: -1}).WithDefaults(); err == nil {
		t.Errorf("negative FlushKeys accepted")
	}
	if _, err := (Config{MaxRuns: 1}).WithDefaults(); err == nil {
		t.Errorf("MaxRuns 1 accepted")
	}
	c, err := Config{}.WithDefaults()
	if err != nil || c.FlushKeys != 4096 || c.MaxRuns != 8 {
		t.Errorf("defaults = %+v, %v", c, err)
	}
}
