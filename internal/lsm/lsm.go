// Package lsm is the write-optimized storage engine behind the
// serving layer's Backend interface: a log-structured merge design
// with an in-memory memtable (persistent treap), immutable sorted runs
// with per-run bloom filters, and size-tiered compaction. A put is an
// O(log memtable) treap insert — no B+-Tree node shifting, no
// second-tree replay — which is why it wins write-heavy workloads; a
// get pays one memtable probe plus a bloom-filtered binary search per
// run, which is why the pB+-Tree engine keeps winning read-heavy ones.
//
// LSN bookkeeping: every run carries the inclusive interval
// [minLSN, maxLSN] of WAL records whose effects it holds; minLSN == 0
// additionally means the run carries the shard's bootstrap contents.
// Live runs always chain — each run's minLSN is its older neighbor's
// maxLSN + 1, down to a bottom run with minLSN 0 — and the memtable
// covers everything newer than the newest run. Compaction merges a
// newest-first prefix of the chain (so outputs stay contiguous) and
// may drop tombstones only when the output's minLSN is 0: only then is
// there provably nothing older left to shadow. Recovery reloads the
// runs, deletes any run contained in a wider (or same-range,
// higher-generation) one — the leftovers of a crash between a
// compaction's rename and its input deletes — and re-checks the chain.
// The WAL tail past the newest run replays into the memtable, exactly
// as it does onto the pB+-Tree engine's checkpoint.
package lsm

import (
	"fmt"
	"io"
	"path"
	"sort"
	"sync/atomic"

	"pbtree/internal/backend"
	"pbtree/internal/core"
	"pbtree/internal/storage"
)

// Config tunes the LSM engine. The zero value selects the defaults.
type Config struct {
	// FlushKeys is the memtable entry count (tombstones included) that
	// triggers a flush into a new sorted run. Zero selects 4096.
	FlushKeys int

	// MaxRuns is the run count above which a flush triggers
	// compaction. Zero selects 8; the floor is 2.
	MaxRuns int
}

// WithDefaults resolves and validates the configuration.
func (c Config) WithDefaults() (Config, error) {
	if c.FlushKeys == 0 {
		c.FlushKeys = 4096
	}
	if c.FlushKeys < 1 {
		return c, fmt.Errorf("lsm: flush threshold %d must be positive", c.FlushKeys)
	}
	if c.MaxRuns == 0 {
		c.MaxRuns = 8
	}
	if c.MaxRuns < 2 {
		return c, fmt.Errorf("lsm: max runs %d below the floor of 2", c.MaxRuns)
	}
	return c, nil
}

// lsmView is one published read view: a memtable root plus the run
// list, all immutable. Unlike the pB+-Tree engine there is no
// refcount — old views are simply garbage-collected, since nothing is
// ever recycled in place.
type lsmView struct {
	mem     *memNode
	runs    []*run // newest first
	version uint64
	lsn     uint64
	count   int
	memKeys int
}

// Get implements backend.Snapshot: memtable first (newest), then runs
// newest to oldest; the first hit — live or tombstone — wins.
func (v *lsmView) Get(k core.Key) (core.TID, bool) {
	if e, ok := memGet(v.mem, k); ok {
		return e.tid, !e.del
	}
	for _, r := range v.runs {
		if e, ok := r.get(k); ok {
			return e.tid, !e.del
		}
	}
	return 0, false
}

// GetBatch implements backend.Snapshot. The LSM read path has no
// software-pipelined batch variant; each key is an independent probe.
func (v *lsmView) GetBatch(keys []core.Key, tids []core.TID, found []bool) {
	for i, k := range keys {
		tids[i], found[i] = v.Get(k)
	}
}

// noKey is the merge sentinel: above any real (32-bit) key.
const noKey = uint64(1) << 40

// lsmRun is a resumable scan of one view over [start, end]: the k-way
// merge of the memtable and every run, newest source winning per key
// and tombstones shadowing, kept between fills. The memtable is walked
// lazily — mem is an in-order walk's stack, the next entry on top — so
// a fill reads what it returns, never the memtable's whole range. next
// is the next live pair, resolved ahead so that Done is exact.
type lsmRun struct {
	v        *lsmView
	end      core.Key
	mem      []*memNode
	pos, his []int // per run: the next entry in range, and the range's end
	next     core.Pair
	more     bool
}

// scan opens a run of the view over [start, end].
func (v *lsmView) scan(start, end core.Key) *lsmRun {
	r := &lsmRun{v: v, end: end, pos: make([]int, len(v.runs)), his: make([]int, len(v.runs))}
	if start <= end {
		for n := v.mem; n != nil; {
			if n.key >= start {
				r.mem = append(r.mem, n)
				n = n.left
			} else {
				n = n.right
			}
		}
		for i, rn := range v.runs {
			r.pos[i], r.his[i] = rn.rangeOf(start, end)
		}
	}
	r.advance()
	return r
}

// advance resolves the next live pair into r.next, or clears r.more at
// the end of the range.
func (r *lsmRun) advance() {
	for {
		best := noKey
		top := len(r.mem) - 1
		if top >= 0 && r.mem[top].key <= r.end {
			best = uint64(r.mem[top].key)
		}
		for i, rn := range r.v.runs {
			if r.pos[i] < r.his[i] && uint64(rn.keys[r.pos[i]]) < best {
				best = uint64(rn.keys[r.pos[i]])
			}
		}
		if best == noKey {
			r.more = false
			return
		}
		k := core.Key(best)
		var e memEntry
		have := false
		if top >= 0 && r.mem[top].key == k {
			n := r.mem[top]
			e, have = memEntry{key: k, tid: n.tid, del: n.del}, true
			r.mem = r.mem[:top]
			for c := n.right; c != nil; c = c.left {
				r.mem = append(r.mem, c)
			}
		}
		for i, rn := range r.v.runs {
			if r.pos[i] < r.his[i] && rn.keys[r.pos[i]] == k {
				if !have {
					e, have = memEntry{key: k, tid: rn.tids[r.pos[i]], del: rn.tomb(r.pos[i])}, true
				}
				r.pos[i]++
			}
		}
		if !e.del {
			r.next, r.more = core.Pair{Key: k, TID: e.tid}, true
			return
		}
	}
}

// NextPairs implements backend.Run.
func (r *lsmRun) NextPairs(buf []core.Pair) int {
	n := 0
	for ; n < len(buf) && r.more; n++ {
		buf[n] = r.next
		r.advance()
	}
	return n
}

// Done implements backend.Run, exactly.
func (r *lsmRun) Done() bool { return !r.more }

// Run implements backend.Snapshot.
func (v *lsmView) Run(start, end core.Key) backend.Run { return v.scan(start, end) }

// AppendPairs implements backend.Snapshot: the full-range merge.
func (v *lsmView) AppendPairs(dst []core.Pair) []core.Pair {
	for r := v.scan(0, core.MaxKey); r.more; r.advance() {
		dst = append(dst, r.next)
	}
	return dst
}

// Version implements backend.Snapshot.
func (v *lsmView) Version() uint64 { return v.version }

// LSN implements backend.Snapshot.
func (v *lsmView) LSN() uint64 { return v.lsn }

// Count implements backend.Snapshot. The count is exact: Seal
// computes it with a full merge, and every put/delete afterwards
// resolves the key's prior liveness against the memtable and the
// bloom-filtered runs before adjusting it.
func (v *lsmView) Count() int { return v.count }

// Release implements backend.Snapshot; views are garbage-collected,
// so there is nothing to unpin.
func (v *lsmView) Release() {}

// LSM implements backend.Backend. Construct with New; all writer-side
// state is owned by the shard's writer goroutine per the Backend
// contract.
type LSM struct {
	cfg Config
	fs  storage.FS // nil = non-durable
	dir string

	snap atomic.Pointer[lsmView]

	// Writer-owned state.
	mem     *memNode
	memKeys int
	memFrom uint64 // first LSN the memtable covers (newest run's maxLSN + 1)
	runs    []*run // newest first
	count   int    // exact live-key count (see lsmView.Count)
	gen     uint32 // highest generation in use
	version uint64 // last published version
	lsn     uint64 // the LSN it covers
	boot    *backend.Seed
}

// New builds an LSM engine. cfg must already be resolved with
// WithDefaults; fs is nil for a non-durable engine, otherwise dir is
// the shard directory the engine keeps its runs in (shared with the
// store's WAL segments — the engine ignores file names it does not
// own).
func New(cfg Config, fs storage.FS, dir string) *LSM {
	return &LSM{cfg: cfg, fs: fs, dir: dir, memFrom: 1}
}

// publish installs a fresh view. Housekeeping (flush, compaction)
// republishes under the same version and LSN: the contents are
// equivalent, only the layout changed.
func (b *LSM) publish(version, lsn uint64) {
	b.version, b.lsn = version, lsn
	b.snap.Store(&lsmView{mem: b.mem, runs: b.runs, version: version, lsn: lsn, count: b.count, memKeys: b.memKeys})
}

// Recover implements backend.Backend: reload the run files, drop the
// superseded ones, verify the chain.
func (b *LSM) Recover() (uint64, bool, error) {
	if b.fs == nil {
		return 0, false, nil
	}
	names, err := b.fs.ReadDir(b.dir)
	if err != nil {
		return 0, false, err
	}
	backend.RemoveTemp(b.fs, b.dir, names)
	var loaded []*run
	for _, n := range names {
		if _, _, ok := parseRunName(n); !ok {
			continue
		}
		f, err := b.fs.Open(path.Join(b.dir, n))
		if err != nil {
			return 0, true, fmt.Errorf("lsm: opening run %s: %w", n, err)
		}
		blob, rerr := io.ReadAll(f)
		f.Close()
		if rerr != nil {
			return 0, true, fmt.Errorf("lsm: reading run %s: %w", n, rerr)
		}
		r, derr := decodeRun(blob)
		if derr != nil {
			// Unlike pB+-Tree checkpoints, runs are not redundant with
			// each other: a run that fails verification is lost data,
			// so recovery fail-stops rather than silently serving a
			// hole.
			return 0, true, fmt.Errorf("lsm: run %s: %w", n, derr)
		}
		r.name = n
		loaded = append(loaded, r)
	}
	if len(loaded) == 0 {
		return 0, false, nil
	}
	// Drop runs a compaction output supersedes (crash between its
	// rename and the input deletes leaves both on disk).
	live := loaded[:0]
	for _, a := range loaded {
		dead := false
		for _, c := range loaded {
			if supersedes(c, a) {
				dead = true
				break
			}
		}
		if dead {
			_ = b.fs.Remove(path.Join(b.dir, a.name))
			continue
		}
		live = append(live, a)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].maxLSN > live[j].maxLSN })
	for i, r := range live {
		if r.gen > b.gen {
			b.gen = r.gen
		}
		if i+1 < len(live) && r.minLSN != live[i+1].maxLSN+1 {
			return 0, true, fmt.Errorf("lsm: run chain broken: [%d,%d] does not follow [%d,%d]",
				r.minLSN, r.maxLSN, live[i+1].minLSN, live[i+1].maxLSN)
		}
	}
	if live[len(live)-1].minLSN != 0 {
		return 0, true, fmt.Errorf("lsm: run chain has no bottom run (oldest starts at %d)", live[len(live)-1].minLSN)
	}
	b.runs = live
	b.memFrom = live[0].maxLSN + 1
	return live[0].maxLSN, true, nil
}

// supersedes reports whether c makes a obsolete: c covers at least a's
// LSN interval and is either strictly wider or a newer generation of
// the same interval.
func supersedes(c, a *run) bool {
	if c == a || c.minLSN > a.minLSN || c.maxLSN < a.maxLSN {
		return false
	}
	if c.minLSN == a.minLSN && c.maxLSN == a.maxLSN {
		return c.gen > a.gen
	}
	return true
}

// Bootstrap implements backend.Backend.
func (b *LSM) Bootstrap(seed backend.Seed) error {
	b.boot = &seed
	return nil
}

// Replay implements backend.Backend: WAL records replay straight into
// the memtable; the first post-recovery Checkpoint folds them into a
// run.
func (b *LSM) Replay(w backend.Write) error {
	b.applyWrite(w)
	return nil
}

// Seal implements backend.Backend. A bootstrapped engine turns the
// seed into the bottom run [0, 0]; a recovered one computes the exact
// live count across runs + replayed memtable.
func (b *LSM) Seal(version uint64) error {
	if b.boot != nil {
		entries := make([]memEntry, 0, b.boot.N)
		for _, p := range b.boot.Selected() {
			entries = append(entries, memEntry{key: p.Key, tid: p.TID})
		}
		b.runs = []*run{newRun(entries, 0, 0, 0)}
		b.count = len(entries)
		b.memFrom = 1
		b.boot = nil
	} else {
		b.count = 0
		for r := (&lsmView{mem: b.mem, runs: b.runs}).scan(0, core.MaxKey); r.more; r.advance() {
			b.count++
		}
	}
	b.publish(version, version-1)
	return nil
}

// put applies one insert/overwrite, keeping the live count exact: a
// key absent from the memtable resolves its prior liveness against
// the runs (bloom filters keep the usual miss cheap).
func (b *LSM) put(k core.Key, tid core.TID) {
	e, inMem := memGet(b.mem, k)
	live := inMem && !e.del
	if !inMem {
		live = b.runLive(k)
		b.memKeys++
	}
	b.mem, _ = memInsert(b.mem, k, tid, false)
	if !live {
		b.count++
	}
}

// del applies one delete as a tombstone, with put's exact count
// bookkeeping.
func (b *LSM) del(k core.Key) {
	e, inMem := memGet(b.mem, k)
	live := inMem && !e.del
	if !inMem {
		live = b.runLive(k)
		b.memKeys++
	}
	b.mem, _ = memInsert(b.mem, k, 0, true)
	if live {
		b.count--
	}
}

// runLive reports whether k resolves to a live pair in the runs
// (newest hit wins, tombstones shadow) — the read path's shadowing
// order below the memtable.
func (b *LSM) runLive(k core.Key) bool {
	for _, r := range b.runs {
		if e, ok := r.get(k); ok {
			return !e.del
		}
	}
	return false
}

// applyWrite applies one Write's puts and deletes to the memtable.
func (b *LSM) applyWrite(w backend.Write) {
	for _, p := range w.Puts {
		b.put(p.Key, p.TID)
	}
	for _, k := range w.Dels {
		b.del(k)
	}
}

// ApplyBatch implements backend.Backend: apply to the memtable,
// publish, ack, then do size-triggered housekeeping (flush and
// compaction) after the ack so write latency never includes run I/O.
// A Compact write folds everything into a single bottom run instead.
func (b *LSM) ApplyBatch(ws []backend.Write, version, lsn uint64, ack func(error)) error {
	compact := false
	for _, w := range ws {
		b.applyWrite(w)
		compact = compact || w.Compact
	}
	b.publish(version, lsn)
	ack(nil)
	if compact {
		return b.foldAll(lsn)
	}
	if b.memKeys >= b.cfg.FlushKeys {
		if err := b.flush(lsn); err != nil {
			return err
		}
		for len(b.runs) > b.cfg.MaxRuns {
			if err := b.compactOnce(b.pickCompaction()); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush folds the memtable into a new newest run covering
// [b.memFrom, upto] and republishes. On a durable engine the run file
// is written (tmp+fsync+rename) before the memtable is dropped, so a
// flush failure leaves the memtable intact for a retry.
func (b *LSM) flush(upto uint64) error {
	if upto < b.memFrom && b.memKeys == 0 {
		return nil // nothing newer than the runs already cover
	}
	entries := memAppendRange(b.mem, 0, ^core.Key(0), make([]memEntry, 0, b.memKeys))
	r := newRun(entries, b.memFrom, upto, 0)
	if b.fs != nil {
		if err := b.writeRun(r); err != nil {
			return fmt.Errorf("lsm: flush: %w", err)
		}
	}
	b.runs = append([]*run{r}, b.runs...)
	b.mem, b.memKeys, b.memFrom = nil, 0, upto+1
	b.publish(b.version, b.lsn)
	return nil
}

// pickCompaction sizes the size-tiered merge: starting from the newest
// run, absorb the next-older run while it is at most twice the bytes
// already absorbed — so small fresh runs coalesce without repeatedly
// rewriting a large bottom run — with a floor of two runs so the count
// always shrinks.
func (b *LSM) pickCompaction() int {
	take, sum := 1, b.runs[0].len()
	for take < len(b.runs) && b.runs[take].len() <= 2*sum {
		sum += b.runs[take].len()
		take++
	}
	if take < 2 {
		take = 2
	}
	return take
}

// compactOnce merges the newest take runs into one. Tombstones are
// dropped only when the output reaches the bottom (minLSN 0); the
// merged file lands before the inputs are deleted, so a crash anywhere
// leaves a recoverable superset.
func (b *LSM) compactOnce(take int) error {
	if take > len(b.runs) {
		take = len(b.runs)
	}
	if take < 2 {
		return nil
	}
	ins := b.runs[:take]
	minLSN := ins[take-1].minLSN
	merged := mergeRunEntries(ins, minLSN == 0)
	b.gen++
	out := newRun(merged, minLSN, ins[0].maxLSN, b.gen)
	if b.fs != nil {
		if err := b.writeRun(out); err != nil {
			return fmt.Errorf("lsm: compaction: %w", err)
		}
		for _, r := range ins {
			if r.name != "" {
				_ = b.fs.Remove(path.Join(b.dir, r.name))
			}
		}
	}
	b.runs = append([]*run{out}, b.runs[take:]...)
	b.publish(b.version, b.lsn)
	return nil
}

// foldAll is the explicit Compact request: flush whatever the memtable
// holds, then merge every run into a single bottom run, restoring the
// flattest read-side layout.
func (b *LSM) foldAll(upto uint64) error {
	if err := b.flush(upto); err != nil {
		return err
	}
	return b.compactOnce(len(b.runs))
}

// mergeRunEntries k-way merges runs (newest first, newest wins per
// key) into one sorted entry slice.
func mergeRunEntries(rs []*run, dropTombs bool) []memEntry {
	total := 0
	for _, r := range rs {
		total += r.len()
	}
	out := make([]memEntry, 0, total)
	pos := make([]int, len(rs))
	for {
		best := noKey
		for i, r := range rs {
			if pos[i] < r.len() && uint64(r.keys[pos[i]]) < best {
				best = uint64(r.keys[pos[i]])
			}
		}
		if best == noKey {
			return out
		}
		k := core.Key(best)
		var e memEntry
		have := false
		for i, r := range rs {
			if pos[i] < r.len() && r.keys[pos[i]] == k {
				if !have {
					e, have = memEntry{key: k, tid: r.tids[pos[i]], del: r.tomb(pos[i])}, true
				}
				pos[i]++
			}
		}
		if !e.del || !dropTombs {
			out = append(out, e)
		}
	}
}

// writeRun persists a run via the tmp+fsync+rename protocol and stamps
// its file name.
func (b *LSM) writeRun(r *run) error {
	name := runName(r.maxLSN, r.gen)
	err := backend.WriteAtomic(b.fs, path.Join(b.dir, name), func(w io.Writer) error {
		_, err := w.Write(encodeRun(r))
		return err
	})
	if err != nil {
		return err
	}
	r.name = name
	return nil
}

// Snapshot implements backend.Backend.
func (b *LSM) Snapshot() backend.Snapshot { return b.snap.Load() }

// Checkpoint implements backend.Backend: persist any not-yet-durable
// run (the bootstrap seal's bottom run), then flush the memtable so
// the runs cover everything through lsn and the store can rotate the
// WAL.
func (b *LSM) Checkpoint(lsn uint64) error {
	if b.fs == nil {
		return nil
	}
	for i := len(b.runs) - 1; i >= 0; i-- {
		if b.runs[i].name == "" {
			if err := b.writeRun(b.runs[i]); err != nil {
				return fmt.Errorf("lsm: checkpoint: %w", err)
			}
		}
	}
	if lsn >= b.memFrom || b.memKeys > 0 {
		return b.flush(lsn)
	}
	return nil
}

// Stats implements backend.Backend.
func (b *LSM) Stats() backend.Stats {
	v := b.snap.Load()
	return backend.Stats{
		Backend: "lsm",
		Version: v.version,
		Count:   v.count,
		Runs:    len(v.runs),
		MemKeys: v.memKeys,
	}
}

// Close implements backend.Backend; views are garbage-collected and
// every durable artifact is already on disk.
func (b *LSM) Close() error { return nil }
