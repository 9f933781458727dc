package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pbtree"
)

// perLayer lists the metrics of the traced run, layer by layer, in the
// order they print. BENCHMARK.json names the same ones.
var perLayer = []metricSpec{
	// memsys + core, simulated
	{Name: "sim_search_cycles", Unit: "cycles", Better: "lower"},
	{Name: "sim_search_cycles_bplus", Unit: "cycles", Better: "lower"},
	{Name: "sim_scan_cycles_per_row", Unit: "cycles", Better: "lower"},
	{Name: "sim_scan_cycles_per_row_bplus", Unit: "cycles", Better: "lower"},
	{Name: "sim_insert_cycles", Unit: "cycles", Better: "lower"},
	{Name: "sim_delete_cycles", Unit: "cycles", Better: "lower"},
	{Name: "sim_stall_frac", Unit: "frac", Better: "lower"},
	{Name: "sim_mem_misses_per_search", Unit: "count", Better: "lower"},
	{Name: "sim_prefetches_per_search", Unit: "count", Better: "lower"},
	{Name: "sim_host_ns_per_search", Unit: "ns", Better: "lower"},
	{Name: "sim_host_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "sim_bulkload_host_ns_per_key", Unit: "ns", Better: "lower"},
	// core, native
	{Name: "tree_bulkload_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "tree_search_ns", Unit: "ns", Better: "lower"},
	{Name: "tree_searchbatch_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "tree_scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "tree_insert_ns", Unit: "ns", Better: "lower"},
	{Name: "tree_delete_ns", Unit: "ns", Better: "lower"},
	{Name: "tree_bytes_per_key", Unit: "B", Better: "lower"},
	// backend + serve store, in process
	{Name: "store_open_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "store_get_ns", Unit: "ns", Better: "lower"},
	{Name: "store_self_get_ns", Unit: "ns", Better: "lower"},
	{Name: "store_mget_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "store_scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "store_cursor_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "store_put_us", Unit: "us", Better: "lower"},
	{Name: "store_putbatch_us_per_pair", Unit: "us", Better: "lower"},
	{Name: "store_puts_per_publish", Unit: "count", Better: "higher"},
	{Name: "store_dput_us", Unit: "us", Better: "lower"},
	{Name: "wal_bytes_per_put", Unit: "B", Better: "lower"},
	{Name: "store_ckpt_stall_p99_us", Unit: "us", Better: "lower"},
	// lsm
	{Name: "store_lsm_get_ns", Unit: "ns", Better: "lower"},
	{Name: "store_lsm_put_us", Unit: "us", Better: "lower"},
	{Name: "store_lsm_scan_ns_per_row", Unit: "ns", Better: "lower"},
	// serve wire + server + client
	{Name: "wire_get_us", Unit: "us", Better: "lower"},
	{Name: "wire_self_get_us", Unit: "us", Better: "lower"},
	{Name: "wire_mget_us_per_key", Unit: "us", Better: "lower"},
	{Name: "wire_scan_us_per_row", Unit: "us", Better: "lower"},
	{Name: "wire_stream_us_per_row", Unit: "us", Better: "lower"},
	{Name: "wire_put_us", Unit: "us", Better: "lower"},
	{Name: "srv_get_total_us", Unit: "us", Better: "lower"},
	{Name: "srv_get_exec_us", Unit: "us", Better: "lower"},
	{Name: "srv_get_io_us", Unit: "us", Better: "lower"},
	{Name: "srv_get_wait_us", Unit: "us", Better: "lower"},
	{Name: "srv_get_budget_gap_frac", Unit: "frac", Better: "lower"},
	{Name: "srv_put_total_us", Unit: "us", Better: "lower"},
	{Name: "srv_put_exec_us", Unit: "us", Better: "lower"},
	{Name: "srv_put_io_us", Unit: "us", Better: "lower"},
	{Name: "srv_put_wait_us", Unit: "us", Better: "lower"},
	{Name: "net_get_residual_us", Unit: "us", Better: "lower"},
	{Name: "srv_cpu_us_per_get", Unit: "us", Better: "lower"},
	{Name: "sat_p50_us", Unit: "us", Better: "lower"},
	{Name: "sat_p99_us", Unit: "us", Better: "lower"},
	{Name: "lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "rejected_frac", Unit: "frac", Better: "lower"},
	{Name: "expired_frac", Unit: "frac", Better: "lower"},
	{Name: "srv_rss_ready_mb", Unit: "MB", Better: "lower"},
	{Name: "recover_s", Unit: "s", Better: "lower"},
	// obs
	{Name: "obs_stats_us", Unit: "us", Better: "lower"},
	{Name: "trace_overhead_frac", Unit: "frac", Better: "lower"},
	// the generator itself
	{Name: "gen_late_p99_us", Unit: "us", Better: "lower"},
	{Name: "gen_cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "sleep_1ms_p50_us", Unit: "us", Better: "lower"},
}

// Sizes of the ladder's multi-key probes: the same at every rung, so a
// rung's self time is a difference of like with like.
const (
	ladderBatch      = 16   // keys per MGet / SearchBatch
	ladderScanRows   = 100  // rows per Scan
	ladderStreamRows = 2000 // rows per cursor / stream probe
	ladderChunk      = 256  // rows per cursor / stream chunk
	smallStoreKeys   = 1_000_000
	ckptPuts         = 26_000 // 2 shards x 3 checkpoints x 4096 records, and a margin
	ckptCallers      = 64     // so each checkpoint stalls over 1% of the puts
)

// ladder is the state of one traced run.
type ladder struct {
	e      *env
	w      *workload
	res    *result
	tr     *tracer
	probes []int // probe i addresses preloaded key index probes[i] at every rung
	wire   int   // how many of the probes also go over the wire
	scale  float64
	med    map[string]float64 // median span duration in ns, by "rung/op"
}

// bad counts one wrong answer of a probe.
func (l *ladder) bad(format string, args ...any) {
	l.res.Failed++
	if l.res.Correct {
		l.res.incorrect(format, args...)
	}
}

// insKey is the key probe i writes: next to its preloaded key, in no
// connection's write set and not a sim insert key.
func (l *ladder) insKey(i int) pbtree.Key { return keyOf(l.probes[i]) + 7 }

// record stores the median of a rung's span durations for one op and
// returns it.
func (l *ladder) record(rung int, op string, ns []float64) float64 {
	m := median(ns)
	l.med[rungNames[rung]+"/"+op] = m
	l.res.Samples[rungNames[rung]+"/"+op] = len(ns)
	l.res.Attempted += int64(len(ns))
	return m
}

// runLadder is the traced run of one workload: fixed, seeded probe
// operations on the workload's key count and distribution, issued
// through four rungs — simulated tree, native tree, in-process store
// (plain, durable, LSM), server child over loopback — with a span
// around every call.
func runLadder(e *env, w *workload) (*result, error) {
	hp, _, _ := loadShape()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(hp))
	scale := e.seconds / nominalSeconds
	l := &ladder{e: e, w: w, res: newResult(w, true, e.host), tr: newTracer(), scale: scale, med: map[string]float64{}}
	n := scaled(w.Ladder.Probes, scale, 4*ladderBatch)
	l.wire = min(scaled(w.Ladder.WireProbes, scale, 4*ladderBatch), n)
	keys := newKeyGen(w, w.Keys, rand.New(rand.NewSource(e.seed)))
	seen := map[int]bool{}
	for len(l.probes) < n { // distinct, so every probe's insert is a new key
		if k := keys.next(); !seen[k] {
			seen[k] = true
			l.probes = append(l.probes, k)
		}
	}
	for _, rung := range []func() error{l.simRung, l.treeRung, l.storeRung, l.durableRung, l.lsmRung, l.wireRung} {
		runtime.GC()
		if err := rung(); err != nil {
			return nil, err
		}
	}
	l.res.set("sleep_1ms_p50_us", "us", e.host.Sleep1msP50US)

	// Self times down the GET ladder: wire, store, tree.
	self := selfTimes([]float64{l.med["wire/get"], l.med["store/get"], l.med["tree/get"]})
	l.res.set("wire_self_get_us", "us", self[0]/1e3)
	l.res.set("store_self_get_ns", "ns", self[1])

	path := filepath.Join(e.results, "trace-"+w.Name+".json")
	if err := l.tr.write(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	l.res.note("trace: %s (%d spans)", path, len(l.tr.spans))
	return l.res, nil
}

// simRung measures the simulated trees. Spans cover the p8B+ tree (and
// the p8eB+ tree for scans); the B+ baseline is measured beside them.
func (l *ladder) simRung() error {
	res := l.res
	// Counted statistics: the probe that defines the end-to-end
	// sim_*_speedup metrics.
	p, err := simProbe(l.w, l.e.seed)
	if err != nil {
		return err
	}
	p.tally(res)
	p8, scan := p.search[vP8], p.scan[vP8e]
	res.set("sim_bulkload_host_ns_per_key", "ns", float64(p.bulkHost[vP8])/float64(l.w.Keys))
	res.set("sim_search_cycles", "cycles", p8.cycles())
	res.set("sim_search_cycles_bplus", "cycles", p.search[vBPlus].cycles())
	res.set("sim_scan_cycles_per_row", "cycles", scan.cycles())
	res.set("sim_scan_cycles_per_row_bplus", "cycles", p.scan[vBPlus].cycles())
	res.set("sim_stall_frac", "frac", float64(p8.mem.Stall)/float64(p8.mem.Total()))
	// Lines fetched from memory per search: demand misses plus the
	// prefetches that had to go to memory.
	res.set("sim_mem_misses_per_search", "count", float64(p8.mem.MemMisses+p8.mem.PFMem)/float64(p8.ops))
	res.set("sim_prefetches_per_search", "count", float64(p8.mem.Prefetch)/float64(p8.ops))
	res.set("sim_host_ns_per_row", "ns", float64(scan.host)/float64(scan.ops))
	res.Detail["sim_search_speedup"] = p.searchSpeedup()
	res.Detail["sim_scan_speedup"] = p.scanSpeedup()

	// The ladder's probes, one span each.
	t8, t8e := p.trees[vP8], p.trees[vP8e]
	res.set("sim_host_ns_per_search", "ns", l.searchProbes(rungSim, t8.t))
	l.scanProbes(rungSim, t8e.t)
	before := t8.h.Stats()
	l.updateProbes(rungSim, t8.t, false)
	mid := t8.h.Stats()
	l.updateProbes(rungSim, t8.t, true)
	n := float64(len(l.probes))
	res.set("sim_insert_cycles", "cycles", float64(mid.Sub(before).Total())/n)
	res.set("sim_delete_cycles", "cycles", float64(t8.h.Stats().Sub(mid).Total())/n)
	return nil
}

// searchProbes, scanProbes and updateProbes issue the ladder's probes
// against a pbtree.Tree — simulated or native, the calls are the same —
// and return the median span in nanoseconds.
func (l *ladder) searchProbes(rung int, t *pbtree.Tree) float64 {
	var ns []float64
	for i, p := range l.probes {
		k := keyOf(p)
		ns = append(ns, l.tr.time(rung, "get", i, func() {
			if tid, ok := t.Search(k); !ok || tid != pbtree.TID(p) {
				l.bad("%s search of key %d: tid %d found %v", rungNames[rung], k, tid, ok)
			}
		}))
	}
	return l.record(rung, "get", ns)
}

func (l *ladder) scanProbes(rung int, t *pbtree.Tree) float64 {
	var ns []float64
	for i, p := range l.probes[:len(l.probes)/4] {
		start := keyOf(min(p, l.w.Keys-ladderScanRows))
		ns = append(ns, l.tr.time(rung, "scan", i, func() {
			if got := t.Scan(start, ladderScanRows); got != ladderScanRows {
				l.bad("%s scan from %d: %d rows", rungNames[rung], start, got)
			}
		}))
	}
	return l.record(rung, "scan", ns)
}

func (l *ladder) updateProbes(rung int, t *pbtree.Tree, del bool) float64 {
	op := "put"
	if del {
		op = "del"
	}
	var ns []float64
	for i := range l.probes {
		k := l.insKey(i)
		ns = append(ns, l.tr.time(rung, op, i, func() {
			ok := false
			if del {
				ok = t.Delete(k)
			} else {
				ok = t.Insert(k, pbtree.TID(k))
			}
			if !ok {
				l.bad("%s %s of key %d reported false", rungNames[rung], op, k)
			}
		}))
	}
	return l.record(rung, op, ns)
}

// treeRung measures the native pbtree.Tree the store's shards are made
// of: eight-line nodes, prefetching, the default native memory model,
// the store's default fill.
func (l *ladder) treeRung() error {
	w, res := l.w, l.res
	t, err := pbtree.New(pbtree.Config{Width: 8, Prefetch: true, Mem: pbtree.DefaultNative()})
	if err != nil {
		return err
	}
	pairs := sortedPairs(w.Keys)
	t0 := time.Now()
	if err := t.Bulkload(pairs, 0.8); err != nil {
		return err
	}
	res.set("tree_bulkload_ns_per_key", "ns", float64(time.Since(t0))/float64(w.Keys))
	res.set("tree_bytes_per_key", "B", float64(t.SpaceUsed())/float64(t.Len()))
	res.set("tree_search_ns", "ns", l.searchProbes(rungTree, t))

	var ns []float64
	keys, tids, found := make([]pbtree.Key, ladderBatch), make([]pbtree.TID, ladderBatch), make([]bool, ladderBatch)
	for i := 0; i+ladderBatch <= len(l.probes); i += ladderBatch {
		for j := range keys {
			keys[j] = keyOf(l.probes[i+j])
		}
		ns = append(ns, l.tr.time(rungTree, "mget", i/ladderBatch, func() { t.SearchBatch(keys, tids, found) }))
		for j, k := range keys {
			if msg := checkPreloaded(k, tids[j], found[j]); msg != "" {
				l.bad("tree batch search: %s", msg)
			}
		}
	}
	res.set("tree_searchbatch_ns_per_key", "ns", l.record(rungTree, "mget", ns)/ladderBatch)
	res.set("tree_scan_ns_per_row", "ns", l.scanProbes(rungTree, t)/ladderScanRows)
	res.set("tree_insert_ns", "ns", l.updateProbes(rungTree, t, false))
	res.set("tree_delete_ns", "ns", l.updateProbes(rungTree, t, true))
	return nil
}

// storeCounters reads puts and publications out of Store.Stats by
// field name, so a renamed field reads 0 instead of breaking the build.
func storeCounters(st *pbtree.Store) (puts, published float64) {
	b, err := json.Marshal(st.Stats())
	if err != nil {
		return 0, 0
	}
	var s struct {
		Shards []struct {
			Puts      float64 `json:"puts"`
			Published float64 `json:"published"`
		} `json:"shards"`
	}
	if json.Unmarshal(b, &s) != nil {
		return 0, 0
	}
	for _, sh := range s.Shards {
		puts += sh.Puts
		published += sh.Published
	}
	return puts, published
}

// storeProbes issues the read and write probes every Store rung has in
// common and returns the medians (ns) of get, scan and put.
func (l *ladder) storeProbes(rung int, st *pbtree.Store, nkeys, count int) (get, scan, put float64) {
	var ns []float64
	for i, p := range l.probes[:count] {
		k := keyOf(1 + (p-1)%nkeys)
		ns = append(ns, l.tr.time(rung, "get", i, func() {
			tid, ok := st.Get(k)
			if msg := checkPreloaded(k, tid, ok); msg != "" {
				l.bad("%s get: %s", rungNames[rung], msg)
			}
		}))
	}
	get = l.record(rung, "get", ns)
	ns = ns[:0]
	for i, p := range l.probes[:count/4] {
		start := keyOf(min(1+(p-1)%nkeys, nkeys-ladderScanRows))
		var rows []pbtree.Pair
		ns = append(ns, l.tr.time(rung, "scan", i, func() { rows = st.Scan(start, pbtree.MaxKey, ladderScanRows) }))
		if msg := checkRows(rows, start, ladderScanRows, nkeys, false); msg != "" || len(rows) != ladderScanRows {
			l.bad("%s scan from %d: %d rows %s", rungNames[rung], start, len(rows), msg)
		}
	}
	scan = l.record(rung, "scan", ns)
	ns = ns[:0]
	for i, p := range l.probes[:count] {
		k := keyOf(1+(p-1)%nkeys) + 7
		ns = append(ns, l.tr.time(rung, "put", i, func() {
			if err := st.Put(k, pbtree.TID(k)); err != nil {
				l.bad("%s put: %v", rungNames[rung], err)
			}
		}))
	}
	put = l.record(rung, "put", ns)
	return get, scan, put
}

// storeRung measures the in-process store on the workload's key count:
// zero-value configuration, two shards — what the server wraps.
func (l *ladder) storeRung() error {
	w, res := l.w, l.res
	st, took, err := openEmbedded(w)
	if err != nil {
		return err
	}
	defer st.Close()
	res.set("store_open_ns_per_key", "ns", float64(took)/float64(w.Keys))

	puts0, pub0 := storeCounters(st)
	get, scan, put := l.storeProbes(rungStore, st, w.Keys, len(l.probes))
	res.set("store_get_ns", "ns", get)
	res.set("store_scan_ns_per_row", "ns", scan/ladderScanRows)
	res.set("store_put_us", "us", put/1e3)

	var ns []float64
	keys, out := make([]pbtree.Key, ladderBatch), make([]pbtree.Lookup, ladderBatch)
	for i := 0; i+ladderBatch <= len(l.probes); i += ladderBatch {
		for j := range keys {
			keys[j] = keyOf(l.probes[i+j])
		}
		ns = append(ns, l.tr.time(rungStore, "mget", i/ladderBatch, func() { st.MGet(keys, out) }))
		for j, k := range keys {
			if msg := checkPreloaded(k, out[j].TID, out[j].Found); msg != "" {
				l.bad("store mget: %s", msg)
			}
		}
	}
	res.set("store_mget_ns_per_key", "ns", l.record(rungStore, "mget", ns)/ladderBatch)

	ns = ns[:0]
	for i, p := range l.probes[:len(l.probes)/20] {
		start := keyOf(min(p, w.Keys-ladderStreamRows))
		var rows []pbtree.Pair
		var cerr error
		ns = append(ns, l.tr.time(rungStore, "stream", i, func() {
			cur, err := st.OpenCursor(start, pbtree.MaxKey)
			if err != nil {
				cerr = err
				return
			}
			defer cur.Close()
			for len(rows) < ladderStreamRows {
				chunk, done := cur.Next(min(ladderChunk, ladderStreamRows-len(rows)))
				rows = append(rows, chunk...)
				if done {
					break
				}
			}
		}))
		if msg := checkRows(rows, start, ladderStreamRows, w.Keys, false); cerr != nil || msg != "" || len(rows) != ladderStreamRows {
			l.bad("store cursor from %d: %d rows %s %v", start, len(rows), msg, cerr)
		}
	}
	res.set("store_cursor_ns_per_row", "ns", l.record(rungStore, "stream", ns)/ladderStreamRows)

	ns = ns[:0]
	for i := 0; i+4 <= len(l.probes); i += 4 {
		pairs := make([]pbtree.Pair, 4)
		for j := range pairs {
			k := keyOf(l.probes[i+j]) + 6
			pairs[j] = pbtree.Pair{Key: k, TID: pbtree.TID(k)}
		}
		ns = append(ns, l.tr.time(rungStore, "putbatch", i/4, func() {
			if err := st.PutBatch(pairs); err != nil {
				l.bad("store putbatch: %v", err)
			}
		}))
	}
	res.set("store_putbatch_us_per_pair", "us", l.record(rungStore, "putbatch", ns)/4/1e3)

	puts1, pub1 := storeCounters(st)
	if pub1 > pub0 {
		res.set("store_puts_per_publish", "count", (puts1-puts0)/(pub1-pub0))
	} else {
		res.set("store_puts_per_publish", "count", 0)
		res.note("Store.Stats counted no publications: store_puts_per_publish reads 0")
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return nil // a WAL segment deleted under the walk
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// durableRung measures the WAL and checkpoint path of the in-process
// store at 1M keys, fsync always.
func (l *ladder) durableRung() error {
	res := l.res
	dir := filepath.Join(l.e.runDir, fmt.Sprintf("store-%d", l.e.nextDir()))
	defer os.RemoveAll(dir)
	st, err := pbtree.OpenStore(pbtree.StoreConfig{Shards: 2,
		Durable: &pbtree.DurableConfig{Dir: dir, Fsync: pbtree.FsyncAlways}}, sortedPairs(smallStoreKeys))
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.WaitReady(); err != nil {
		return err
	}

	// One caller, fewer puts than a checkpoint interval: the directory
	// grows by exactly the WAL records of these puts.
	count := min(len(l.probes), 2000)
	size0, err := dirBytes(dir)
	if err != nil {
		return err
	}
	_, _, put := l.storeProbes(rungStoreDurable, st, smallStoreKeys, count)
	size1, err := dirBytes(dir)
	if err != nil {
		return err
	}
	res.set("store_dput_us", "us", put/1e3)
	res.set("wal_bytes_per_put", "B", float64(size1-size0)/float64(count))

	// Many callers across several checkpoints: a checkpoint stalls every
	// put in flight on its shard, and with ckptCallers in flight that is
	// more than 1% of the puts, so the p99 sees it.
	var mu sync.Mutex
	var lat []float64
	var wg sync.WaitGroup
	for c := 0; c < ckptCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := make([]float64, 0, ckptPuts/ckptCallers)
			for i := c; i < ckptPuts; i += ckptCallers {
				k := keyOf(1+i%smallStoreKeys) + 5
				t0 := time.Now()
				err := st.Put(k, pbtree.TID(k))
				mine = append(mine, float64(time.Since(t0))/1e3)
				if err != nil {
					mu.Lock()
					l.bad("durable put: %v", err)
					mu.Unlock()
				}
			}
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.Attempted += int64(len(lat))
	stall, _ := p99(lat)
	res.set("store_ckpt_stall_p99_us", "us", stall)
	res.Detail["store_ckpt_put_p50_us"] = median(lat)
	return nil
}

// lsmRung measures the LSM engine behind the same Store API at 1M keys.
func (l *ladder) lsmRung() error {
	st, err := pbtree.OpenStore(pbtree.StoreConfig{Shards: 2, Backend: pbtree.BackendLSM}, sortedPairs(smallStoreKeys))
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.WaitReady(); err != nil {
		return err
	}
	get, scan, put := l.storeProbes(rungStoreLSM, st, smallStoreKeys, len(l.probes))
	l.res.set("store_lsm_get_ns", "ns", get)
	l.res.set("store_lsm_scan_ns_per_row", "ns", scan/ladderScanRows)
	l.res.set("store_lsm_put_us", "us", put/1e3)
	return nil
}

// wireRung measures the server child over loopback: sequential probes
// on one connection bracketed by STATS snapshots, then GET-only
// saturation with and without a span per op, a short open-loop phase
// for the generator's own numbers, and a kill -9 / restart.
func (l *ladder) wireRung() error {
	e, w, res := l.e, l.w, l.res
	gw := *w // the wire traffic of every workload's ladder: GETs on its keys
	gw.Mix = []mixEntry{{Op: "get", Pct: 100, N: 1, kind: opGet}}
	if gw.Backend == "" {
		gw.Backend = "pbtree"
	}
	if gw.Rate == 0 {
		gw.Rate = 20000
	}
	s, _, err := e.setUp(&gw, newModels(&gw))
	if err != nil {
		return err
	}
	defer func() { s.teardown() }()
	pid := s.srv.pid
	rss, err := procMB(pid, "VmRSS")
	if err != nil {
		return err
	}
	res.set("srv_rss_ready_mb", "MB", rss)
	c := s.conns[0]
	statsStart, err := fetchStats(c.cl)
	if err != nil {
		return err
	}

	// probe runs one checked wire op as a span; failures count.
	rec := newRecorder()
	probe := func(name string, i int, o op) float64 {
		before := rec.completed()
		ns := l.tr.time(rungWire, name, i, func() { c.exec(o, time.Now(), rec) })
		if rec.completed() == before {
			l.bad("wire %s probe %d: %s", name, i, rec.firstErr)
		}
		return ns
	}

	var ns []float64
	for i, p := range l.probes[:l.wire] {
		ns = append(ns, probe("get", i, op{kind: opGet, keys: []pbtree.Key{keyOf(p)}}))
	}
	wireGet := l.record(rungWire, "get", ns)
	res.set("wire_get_us", "us", wireGet/1e3)
	statsGet, err := fetchStats(c.cl)
	if err != nil {
		return err
	}
	get := budgetOf(statsStart, statsGet, "get", &res.Notes)
	res.set("srv_get_total_us", "us", get.total)
	res.set("srv_get_exec_us", "us", get.class[classExec])
	res.set("srv_get_io_us", "us", get.class[classIO])
	res.set("srv_get_wait_us", "us", get.class[classWait])
	gap := 0.0
	if get.total > 0 {
		gap = (get.total - get.class[classExec] - get.class[classIO] - get.class[classWait]) / get.total
	}
	res.set("srv_get_budget_gap_frac", "frac", gap)
	if gap > 0.05 || gap < -0.05 {
		res.note("GET budget does not close: stage classes sum to %.1f%% of srv_get_total_us", 100*(1-gap))
	}
	// The server reports means, so the remainder up to the client's
	// view is taken between means too: client + loopback.
	wireMean := 0.0
	for _, v := range ns {
		wireMean += v / float64(len(ns))
	}
	res.Detail["wire_get_mean_us"] = wireMean / 1e3
	res.set("net_get_residual_us", "us", wireMean/1e3-get.total)

	ns = ns[:0]
	for i := 0; i+ladderBatch <= l.wire/4*ladderBatch && i+ladderBatch <= len(l.probes); i += ladderBatch {
		keys := make([]pbtree.Key, ladderBatch)
		for j := range keys {
			keys[j] = keyOf(l.probes[i+j])
		}
		ns = append(ns, probe("mget", i/ladderBatch, op{kind: opMGet, keys: keys}))
	}
	res.set("wire_mget_us_per_key", "us", l.record(rungWire, "mget", ns)/ladderBatch/1e3)
	ns = ns[:0]
	for i, p := range l.probes[:l.wire/4] {
		ns = append(ns, probe("scan", i, op{kind: opScan, start: keyOf(min(p, w.Keys-ladderScanRows)), n: ladderScanRows}))
	}
	res.set("wire_scan_us_per_row", "us", l.record(rungWire, "scan", ns)/ladderScanRows/1e3)
	ns = ns[:0]
	t0 := time.Now()
	for i, p := range l.probes[:max(l.wire/20, 4)] {
		ns = append(ns, probe("stream", i, op{kind: opStream, start: keyOf(min(p, w.Keys-ladderStreamRows)), n: ladderStreamRows, chunk: ladderChunk}))
	}
	res.set("rows_per_s", "1/s", float64(len(ns)*ladderStreamRows)/time.Since(t0).Seconds())
	res.set("wire_stream_us_per_row", "us", l.record(rungWire, "stream", ns)/ladderStreamRows/1e3)

	statsPut0, err := fetchStats(c.cl)
	if err != nil {
		return err
	}
	ns = ns[:0]
	for i := range l.probes[:l.wire/2] {
		k := l.insKey(i)
		ns = append(ns, probe("put", i, op{kind: opPut, pairs: []pbtree.Pair{{Key: k, TID: pbtree.TID(k)}}}))
	}
	res.set("wire_put_us", "us", l.record(rungWire, "put", ns)/1e3)
	statsPut1, err := fetchStats(c.cl)
	if err != nil {
		return err
	}
	put := budgetOf(statsPut0, statsPut1, "put", &res.Notes)
	res.set("srv_put_total_us", "us", put.total)
	res.set("srv_put_exec_us", "us", put.class[classExec])
	res.set("srv_put_io_us", "us", put.class[classIO])
	res.set("srv_put_wait_us", "us", put.class[classWait])

	ns = ns[:0]
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := fetchStats(c.cl); err != nil {
			return err
		}
		ns = append(ns, float64(time.Since(t0)))
	}
	res.set("obs_stats_us", "us", median(ns)/1e3)

	// GET-only saturation, untraced then with a span per op.
	satDur := time.Duration(w.Ladder.Sat * l.scale * float64(time.Second))
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	plain := runSat(&gw, s.conns, e.seed+3, satDur, opGet, nil)
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	res.count(plain, "sat")
	res.set("srv_cpu_us_per_get", "us", float64((cpu1-cpu0).Microseconds())/float64(max(plain.completed(), 1)))
	res.latency("sat_p50_us", "sat_p99_us", plain.all())
	traced := runSat(&gw, s.conns, e.seed+4, satDur, opGet, func(k opKind, t0, t1 time.Time) {
		l.tr.add(rungWire, "sat-"+opNames[k], -1, t0, t1)
	})
	res.count(traced, "sat traced")
	ramp := satDur / 5
	tpPlain, tpTraced := plain.throughput(ramp, satDur), traced.throughput(ramp, satDur)
	res.set("trace_overhead_frac", "frac", 1-tpTraced/tpPlain)
	res.Detail["sat_get_ops_per_s"] = tpPlain
	res.Detail["sat_get_ops_per_s_traced"] = tpTraced

	// Open loop at the workload's rate — its own mix when it is a served
	// workload, GETs otherwise: the tail latency from due time, and how
	// late and how busy the generator itself runs.
	openW := &gw
	if w.Kind == "served" {
		openW = w
	}
	gens := make([]*opGen, len(s.conns))
	for i, oc := range s.conns {
		gens[i] = newOpGen(openW, rand.New(rand.NewSource(e.seed*7919+int64(i))), oc.model)
		oc.exact = false // the put probes left keys of their own beside the preloaded ones
	}
	genCPU0 := selfCPU()
	open := runOpen(s.conns, gens, gw.Rate, time.Duration(w.Ladder.Open*l.scale*float64(time.Second)))
	genCPU := selfCPU() - genCPU0
	res.count(open, "open")
	res.latency("open_p50_us", "lat_p99_us", open.all())
	late, _ := p99(open.late)
	res.set("gen_late_p99_us", "us", late)
	res.set("gen_cpu_us_per_op", "us", float64(genCPU.Microseconds())/float64(max(open.attempted, 1)))

	statsEnd, err := fetchStats(c.cl)
	if err != nil {
		return err
	}
	served := float64(max(statsEnd.totalOps()-statsStart.totalOps(), 1))
	res.set("rejected_frac", "frac", float64(statsEnd.Rejected-statsStart.Rejected)/served)
	res.set("expired_frac", "frac", float64(statsEnd.Expired-statsStart.Expired)/served)

	// kill -9, restart (on the same directory when durable), first
	// verified GET.
	var keys []pbtree.Key
	var want []pbtree.TID
	for _, oc := range s.conns { // every write this rung had acknowledged
		k, v := oc.model.expected()
		keys, want = append(keys, k...), append(want, v...)
	}
	s.closeConns()
	s.srv.kill()
	t0 = time.Now()
	srv, err := startServer(e.specFor(&gw, s.dir))
	if err != nil {
		return err
	}
	s.srv = srv
	cl, err := srv.dialReady(w.Keys, 90*time.Second)
	if err != nil {
		return fmt.Errorf("restart after kill -9: %w", err)
	}
	res.set("recover_s", "s", time.Since(t0).Seconds())
	s.conns = []*conn{{cl: cl, nkeys: w.Keys}}
	if w.Durable { // acknowledged writes must have survived
		checked, bad, err := s.conns[0].verifyKeys(keys, want)
		if err != nil {
			return err
		}
		res.Attempted += checked
		if bad > 0 {
			l.bad("after kill -9 and restart: %d of %d acknowledged writes read back wrong", bad, checked)
		}
	}
	s.srv.stop()
	return nil
}
