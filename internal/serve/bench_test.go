package serve

import (
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pbtree/internal/core"
	"pbtree/internal/workload"
)

// The allocation counts of the read path, kept on record (-benchmem):
// Store.MGet as the facade calls it and over reused scratch as the
// server's bursts do, a GET over loopback with one request outstanding
// and with sixteen (the loopback numbers include the client's own
// allocations: its Call, request and decoded response), and the two
// uses of the one scan path — a 100-row Store.Scan, one allocation (its
// result: the store's spare cursor holds the runs, their buffers and
// the shards' scanners; seven while every fill was a new backend scan),
// and a 2000-row stream in chunks of 256 that stops early (the cursor
// at open, one allocation a chunk, and two buffers a shard: its first
// fill's, then one of cursorRefill rows).

const benchKeys = 1 << 18

func benchStore(b *testing.B) *Store {
	st := openBenchStore(b, benchKeys)
	b.Cleanup(st.Close)
	return st
}

// openBenchStore opens a two-shard store of the given number of keys
// and waits until it serves; the caller closes it.
func openBenchStore(b *testing.B, keys int) *Store {
	b.Helper()
	st, err := Open(StoreConfig{Shards: 2}, workload.SortedPairs(keys))
	if err != nil {
		b.Fatal(err)
	}
	if err := st.WaitReady(); err != nil {
		b.Fatal(err)
	}
	return st
}

func BenchmarkStoreMGet(b *testing.B) {
	st := benchStore(b)
	r := rand.New(rand.NewSource(1))
	keys := make([]core.Key, 16)
	for i := range keys {
		keys[i] = workload.ExistingKey(r, benchKeys)
	}
	out := make([]Lookup, len(keys))
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.MGet(keys, out)
		}
	})
	b.Run("scratch", func(b *testing.B) {
		var sc mgetScratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.mget(keys, out, &sc)
		}
	})
}

// benchServerGet keeps depth GETs outstanding on one connection.
func benchServerGet(b *testing.B, depth int) {
	st := benchStore(b)
	srv := NewServer(st, ServerConfig{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(2e9)
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	r := rand.New(rand.NewSource(1))
	done := make(chan *Call, depth)
	b.ReportAllocs()
	b.ResetTimer()
	for sent, recv := 0, 0; recv < b.N; {
		for ; sent < b.N && sent-recv < depth; sent++ {
			cl.Go(&Request{Op: OpGet, Keys: []core.Key{workload.ExistingKey(r, benchKeys)}}, done)
		}
		call := <-done
		recv++
		if call.Err != nil || call.Resp.Status != StatusOK {
			b.Fatalf("GET answered %+v, %v", call.Resp, call.Err)
		}
	}
}

func BenchmarkServerGetSeq(b *testing.B)         { benchServerGet(b, 1) }
func BenchmarkServerGetPipelined16(b *testing.B) { benchServerGet(b, 16) }

// BenchmarkStoreScan100 is the scan of embedded's mix — 100 rows from
// a random key, two shards — on a store that fits the cache and on one
// of embedded's 16 M keys, whose descents are misses: the size where
// opening every shard's scanner in one descent shows.
func BenchmarkStoreScan100(b *testing.B) {
	for _, size := range []struct {
		name string
		keys int
	}{{"256K", benchKeys}, {"16M", 16_000_000}} {
		var st *Store
		b.Run(size.name, func(b *testing.B) {
			if st == nil {
				st = openBenchStore(b, size.keys)
			}
			r := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rows := st.Scan(workload.ExistingKey(r, size.keys/2), math.MaxUint32, 100); len(rows) != 100 {
					b.Fatalf("scan returned %d rows", len(rows))
				}
			}
		})
		if st != nil {
			st.Close()
		}
	}
}

func BenchmarkStoreCursor2000x256(b *testing.B) {
	st := benchStore(b)
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cur, err := st.OpenCursor(workload.ExistingKey(r, benchKeys/2), math.MaxUint32)
		if err != nil {
			b.Fatal(err)
		}
		for got := 0; got < 2000; {
			rows, _ := cur.Next(min(256, 2000-got))
			got += len(rows)
		}
		cur.Close()
	}
}

// BenchmarkStoreOpen is the store's start: Open and WaitReady over a
// 4 M-pair seed made beforehand, on both engines, in memory (/mem) and
// durable (/durable: fsync never, a fresh temporary directory each
// time, so every shard bootstraps and writes its first checkpoint),
// on 2 and 8 shards. ns/key is the time per seed pair and B/key what
// the start allocates per seed pair, the shards' engines included.
// Every shard reads the whole seed and takes its own pairs; run it at
// GOMAXPROCS=1 to see that reading on one core.
func BenchmarkStoreOpen(b *testing.B) {
	const keys = 4 << 20
	seed := workload.SortedPairs(keys)
	for _, be := range []string{BackendPBTree, BackendLSM} {
		for _, durable := range []bool{false, true} {
			for _, shards := range []int{2, 8} {
				name := fmt.Sprintf("%s/mem/shards%d", be, shards)
				if durable {
					name = fmt.Sprintf("%s/durable/shards%d", be, shards)
				}
				b.Run(name, func(b *testing.B) {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					for i := 0; i < b.N; i++ {
						cfg := StoreConfig{Shards: shards, Backend: be}
						if durable {
							b.StopTimer()
							cfg.Durable = &DurableConfig{Dir: b.TempDir(), Fsync: FsyncNever}
							b.StartTimer()
						}
						st, err := Open(cfg, seed)
						if err != nil {
							b.Fatal(err)
						}
						if err := st.WaitReady(); err != nil {
							b.Fatal(err)
						}
						b.StopTimer()
						st.Close()
						b.StartTimer()
					}
					b.StopTimer()
					runtime.ReadMemStats(&after)
					n := float64(b.N) * keys
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/key")
					b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/key")
				})
			}
		}
	}
}

// BenchmarkStorePut is the write side's number: one caller, two
// shards, a million keys, every Put its own batch — a put's way
// through the queue, the shard writer, the engine's publication (for
// pbtree one copy-on-write version of the tree: fork, one insert into
// a copied path, publish) and back. Each engine runs in memory (/mem)
// and durable (/durable: a WAL with fsync never, in a temporary
// directory), so the two engines' write paths compare like for like.
func BenchmarkStorePut(b *testing.B) {
	const keys = 1 << 20
	for _, be := range []string{BackendPBTree, BackendLSM} {
		for _, durable := range []bool{false, true} {
			name := be + "/mem"
			if durable {
				name = be + "/durable"
			}
			b.Run(name, func(b *testing.B) {
				cfg := StoreConfig{Shards: 2, Backend: be}
				if durable {
					cfg.Durable = &DurableConfig{Dir: b.TempDir(), Fsync: FsyncNever}
				}
				st, err := Open(cfg, workload.SortedPairs(keys))
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				if err := st.WaitReady(); err != nil {
					b.Fatal(err)
				}
				r := rand.New(rand.NewSource(1))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := st.Put(workload.ExistingKey(r, keys)+core.Key(1+r.Intn(7)), 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRecoverShard is the reopen of one 3 M-pair shard (fsync
// never, on the OS file system, CheckpointEvery 4 096): its checkpoint
// plus a WAL tail of single-put records — /tail4096, the longest tail a
// cadence of 4 096 records allowed, and /image, 750 k records in 4 096-
// record segments, just short of the image's bytes, the longest tail
// the size rule allows. Each reopen starts from a copy of the same
// directory, since recovery folds the tail into a new checkpoint;
// data_MB is that directory's size. On a Xeon @ 2.10
// GHz (2 vCPUs, ext4, GOMAXPROCS=1): /tail4096 91–97 ms and /image
// 228–241 ms; replayed record by record into a scratch tree, before
// the sort-merge, they took 106–121 and 613–665 ms (the /image tail in
// one segment).
func BenchmarkRecoverShard(b *testing.B) {
	const keys = 3_000_000
	for _, bc := range []struct {
		name    string
		records int
	}{{"tail4096", 4096}, {"image", int(core.EncodedSize(keys) / 32)}} {
		b.Run(bc.name, func(b *testing.B) {
			src := b.TempDir()
			open := func(dir string, seed []core.Pair) *Store {
				st, err := Open(StoreConfig{Shards: 1, Durable: &DurableConfig{
					Dir: dir, Fsync: FsyncNever, CheckpointEvery: 4096,
				}}, seed)
				if err != nil {
					b.Fatal(err)
				}
				if err := st.WaitReady(); err != nil {
					b.Fatal(err)
				}
				return st
			}
			st := open(src, workload.SortedPairs(keys))
			r := rand.New(rand.NewSource(1))
			for i := 0; i < bc.records; i++ {
				if err := st.Put(workload.ExistingKey(r, keys)+core.Key(r.Intn(8)), core.TID(i)); err != nil {
					b.Fatal(err)
				}
			}
			st.Close()
			size := copyDir(b, src, "")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				copyDir(b, src, dir)
				b.StartTimer()
				st := open(dir, nil)
				b.StopTimer()
				if rs := st.Recovery()[0]; rs.Replayed != uint64(bc.records) {
					b.Fatalf("replayed %d records, want %d", rs.Replayed, bc.records)
				}
				st.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(size)/1e6, "data_MB")
		})
	}
}

// copyDir copies the files of the directory tree src into dst (only
// sizes them when dst is empty) and returns their total size.
func copyDir(b *testing.B, src, dst string) int64 {
	b.Helper()
	var size int64
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		size += int64(len(data))
		if dst == "" {
			return nil
		}
		rel, _ := filepath.Rel(src, p)
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dst, rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		b.Fatal(err)
	}
	return size
}
