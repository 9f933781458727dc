// Package backend defines the per-shard storage-engine interface of
// the serving layer, plus the engine extracted from the original
// store: the prefetch-optimized pB+-Tree, published as copy-on-write
// versions of one tree (PBTree). A write-optimized log-structured engine lives
// in internal/lsm and implements the same interface.
//
// Division of labor with internal/serve: the store owns hash
// partitioning, the per-shard mutation queue and single writer
// goroutine, the write-ahead log (group commit, segment rotation,
// replay, pruning) and the MANIFEST; a Backend owns the in-memory
// index, its read snapshots, and its durable artifacts (checkpoints
// for PBTree, sorted runs for LSM). Every writer-side method below is
// called only from the owning shard's writer goroutine, so engines
// never need their own write locks; Snapshot and the snapshots it
// returns must be safe for any number of concurrent readers.
//
// Lifecycle, driven by the store from the shard's writer goroutine:
//
//	durable:     Recover → [Bootstrap] → Replay* → Seal → {ApplyBatch | Checkpoint}* → Close
//	non-durable: Bootstrap → Seal → ApplyBatch* → Close
package backend

import (
	"io"

	"pbtree/internal/core"
	"pbtree/internal/storage"
)

// Write is one atomic mutation: the puts and deletes of one client
// batch that landed on this shard. A backend applies a Write's effects
// indivisibly — readers observe none or all of them.
type Write struct {
	// Puts are the pairs to insert or overwrite.
	Puts []core.Pair

	// Dels are the keys to delete (no-ops when absent).
	Dels []core.Key

	// Compact asks the engine to restore its read-side layout (pbtree:
	// rebuild at the configured fill factor; lsm: fold the sorted runs
	// together). The effects of Puts/Dels still apply first.
	Compact bool
}

// Seed is the bootstrap contents of one shard: its selection of a seed
// that every shard of a store reads in place.
type Seed struct {
	Pairs []core.Pair // the shared seed, sorted by key with no duplicates
	Shard []uint8     // one byte per pair, the pair's shard; nil: every pair is this shard's
	ID    uint8       // this shard's byte in Shard
	N     int         // how many pairs are this shard's
}

// All is the seed of every one of pairs.
func All(pairs []core.Pair) Seed { return Seed{Pairs: pairs, N: len(pairs)} }

// Selected returns the seed's pairs, copied out unless every pair is:
// without a branch, as core.Tree.BulkloadSelected takes them.
func (s Seed) Selected() []core.Pair {
	if s.Shard == nil {
		return s.Pairs
	}
	out, k := make([]core.Pair, s.N+1), 0 // the last pair written may be unselected
	for i, p := range s.Pairs {
		out[k] = p
		k += int((uint32(s.Shard[i]^s.ID) - 1) >> 31)
	}
	return out[:k]
}

// Snapshot is one pinned, immutable read view of a backend. All
// methods are safe for concurrent use by any number of readers; the
// view observes no writes applied after it was acquired. Release it
// when done so the engine can recycle resources — every Snapshot must
// be released exactly once.
type Snapshot interface {
	// Get looks up one key.
	Get(k core.Key) (core.TID, bool)

	// GetBatch looks up keys[i] into tids[i]/found[i]. All three
	// slices must have equal length.
	GetBatch(keys []core.Key, tids []core.TID, found []bool)

	// Run opens a resumable scan of the view over [start, end]. It
	// reads the view, so it is valid until the view is released, and
	// one goroutine at a time may use it.
	Run(start, end core.Key) Run

	// AppendPairs appends every pair of the view to dst in key order
	// and returns the extended slice.
	AppendPairs(dst []core.Pair) []core.Pair

	// Version is the publication version of this view. Versions are
	// assigned by the store and increase by one per published batch,
	// surviving restarts (recovery seals at last LSN + 1).
	Version() uint64

	// LSN is the highest WAL LSN the view covers: the lsn its
	// ApplyBatch was given, or version − 1 for the view Seal made.
	LSN() uint64

	// Count reports the number of live keys, exactly, on both engines
	// (LSM resolves every put/delete against its runs to keep the
	// running count true across flush and compaction).
	Count() int

	// Release unpins the view.
	Release()
}

// Run is a resumable scan of one snapshot: each NextPairs continues
// where the last one stopped — the segmented scan of the paper's
// section 3 — instead of searching again. *core.Scanner is the pbtree
// engine's.
type Run interface {
	// NextPairs copies the next rows, in key order, into buf and
	// returns how many: fewer than len(buf) only when the scan is over.
	NextPairs(buf []core.Pair) int

	// Done reports whether the scan has no row left. It may say false
	// with none left; it never says true too early.
	Done() bool
}

// Runs opens the runs of one range over several snapshots — a store's
// shards — and keeps them, with their storage, for the next Open. The
// pbtree engine's runs open as one group (core.OpenScans: the descents
// advance level by level in lockstep, so their misses overlap); any
// other engine's open one by one.
type Runs struct {
	runs  []Run
	trees []*core.Tree
	scs   []core.Scanner
}

// Open opens Run(i) over [start, end] on snaps[i], for every i.
func (g *Runs) Open(snaps []Snapshot, start, end core.Key) {
	g.runs = g.runs[:0]
	if len(snaps) == 0 {
		return
	}
	if _, ok := snaps[0].(*pbSnapshot); !ok {
		for _, s := range snaps {
			g.runs = append(g.runs, s.Run(start, end))
		}
		return
	}
	g.trees = g.trees[:0]
	for _, s := range snaps {
		g.trees = append(g.trees, &s.(*pbSnapshot).tree)
	}
	if cap(g.scs) < len(snaps) {
		g.scs = make([]core.Scanner, len(snaps))
	}
	g.scs = g.scs[:len(snaps)]
	core.OpenScans(g.scs, g.trees, start, end)
	for i := range g.scs {
		g.runs = append(g.runs, &g.scs[i])
	}
}

// Run returns the run of the i-th snapshot.
func (g *Runs) Run(i int) Run { return g.runs[i] }

// Close drops the runs, so that the storage kept for the next Open
// holds nothing of the snapshots they read.
func (g *Runs) Close() {
	clear(g.runs)
	clear(g.trees)
	clear(g.scs)
}

// Stats is a backend's point-in-time self-description, surfaced
// through the store's ShardStats.
type Stats struct {
	// Backend names the engine ("pbtree" or "lsm").
	Backend string

	// Version is the currently published snapshot version.
	Version uint64

	// Count is the exact number of live keys (see Snapshot.Count).
	Count int

	// Height is the published tree height (pbtree only).
	Height int

	// Blocks is the size of the tree's arena in node blocks, free and
	// retired ones included (pbtree only).
	Blocks int

	// Copied counts, since start, the blocks copied so that published
	// versions stayed intact (pbtree only).
	Copied uint64

	// Retired is the number of replaced blocks that wait for a reader
	// of an older version before they can be reused (pbtree only).
	Retired int

	// PinnedSince is when the oldest superseded version a reader still
	// holds was first found held, in Unix nanoseconds; 0 when none is
	// (pbtree only).
	PinnedSince int64

	// Runs is the number of immutable sorted runs (lsm only).
	Runs int

	// MemKeys is the number of memtable entries, tombstones included
	// (lsm only).
	MemKeys int

	// CheckpointBytes is the size of the newest checkpoint the engine
	// wrote or recovered from, and so about what the next one costs.
	// 0 on the lsm engine, whose checkpoint, a memtable flush, already
	// costs in proportion to the log it retires.
	CheckpointBytes int64
}

// Backend is one shard's storage engine. See the package comment for
// the calling contract; in short, everything except Snapshot (and the
// snapshots it returns) is writer-goroutine-only.
type Backend interface {
	// Recover loads the engine's durable artifacts from its shard
	// directory and reports the highest LSN they cover, and whether
	// any prior state existed (when false, the store calls Bootstrap
	// with its seed pairs). Non-durable engines report (0, false, nil).
	// The store replays the WAL tail beyond the returned LSN through
	// Replay before Seal.
	Recover() (lastLSN uint64, hadState bool, err error)

	// Bootstrap seeds an empty engine from its selection of a shared
	// seed, read until Seal returns. Called at most once, before Seal.
	Bootstrap(seed Seed) error

	// Replay applies one recovered WAL record. Cheaper than
	// ApplyBatch: nothing is published until Seal. The engine keeps
	// nothing of w's slices, which the store reuses for the next
	// record.
	Replay(w Write) error

	// Seal builds and publishes the first snapshot at the given
	// version, covering LSN version − 1, ending the recovery phase.
	// Reads may begin afterwards.
	Seal(version uint64) error

	// ApplyBatch applies the writes in order as one publication: it
	// applies every write, publishes a snapshot with the given
	// version, and calls ack exactly once as soon as the batch is
	// visible to new readers (its argument reports a per-batch
	// serving-quality degradation, e.g. a failed compaction rebuild —
	// the batch's effects are still applied). lsn is the highest WAL
	// LSN covered by the batch (the publication version when the store
	// is not durable); engines use it to tag durable artifacts. The
	// returned error reports post-publication housekeeping failures
	// (flush/compaction I/O); the store records it without failing the
	// batch, mirroring checkpoint failures.
	ApplyBatch(ws []Write, version, lsn uint64, ack func(error)) error

	// Snapshot pins and returns the current read view.
	Snapshot() Snapshot

	// Checkpoint makes everything up to and including lsn durable in
	// the engine's own artifact format and prunes artifacts it
	// supersedes, so the store can rotate and prune the WAL. After a
	// successful Checkpoint(lsn), Recover on the same directory must
	// report at least lsn. No-op for non-durable engines.
	Checkpoint(lsn uint64) error

	// Stats reports the engine's current self-description.
	Stats() Stats

	// Close releases engine resources. The store calls it after the
	// writer goroutine drains; reads on already-acquired snapshots
	// must remain valid.
	Close() error
}

// applyWrite applies one Write to a mutable tree — shared by the tree
// backed engines' apply and replay paths.
func applyWrite(t *core.Tree, w Write) {
	for _, p := range w.Puts {
		t.Insert(p.Key, p.TID)
	}
	for _, k := range w.Dels {
		t.Delete(k)
	}
}

// WriteAtomic publishes the file name via tmp+fsync+rename, so a
// readable name is always complete. Any failure after the tmp exists
// removes it: a retry comes under a new name, and a full disk must not
// collect one partial file per attempt.
func WriteAtomic(fs storage.FS, name string, write func(io.Writer) error) error {
	tmp := name + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, name)
	}
	if err != nil {
		_ = fs.Remove(tmp)
	}
	return err
}

// RemoveTemp deletes leftover *.tmp files from a shard directory — an
// interrupted checkpoint or run flush. Engines call it on Recover;
// stray temporaries are harmless but reclaim space.
func RemoveTemp(fs storage.FS, dir string, names []string) {
	for _, n := range names {
		if len(n) > 4 && n[len(n)-4:] == ".tmp" {
			_ = fs.Remove(dir + "/" + n)
		}
	}
}
