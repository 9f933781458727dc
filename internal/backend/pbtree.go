package backend

// PBTree is the read-optimized engine extracted from the original
// store: the paper's prefetch-optimized pB+-Tree, published as
// copy-on-write versions of one tree (core.Tree.Fork). A batch is
// applied once, to a new version that copies only the blocks it
// writes — the path of each key, a handful of 512-byte blocks — so
// publishing is O(batch), never O(shard), whatever readers do; the
// version before stays readable for as long as anyone holds it, and
// holding it delays only the reuse of the blocks replaced since.
// Durability is a full tree snapshot per checkpoint
// (ckpt-<lsn16x>.pbt, tmp+fsync+rename).

import (
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"pbtree/internal/core"
	"pbtree/internal/storage"
)

// CheckpointName is the file name of the pB+-Tree checkpoint covering
// LSNs 1..lsn.
func CheckpointName(lsn uint64) string { return fmt.Sprintf("ckpt-%016x.pbt", lsn) }

// ParseSeq extracts the 16-hex-digit sequence number from a file name
// of the form <prefix><seq><suffix>, reporting whether the name
// matches. Shared by the engines' artifact naming and the store's WAL
// segment naming.
func ParseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	var v uint64
	if _, err := fmt.Sscanf(mid, "%016x", &v); err != nil || len(mid) != 16 {
		return 0, false
	}
	return v, true
}

// pbSnapshot is one published version: a frozen tree, immutable from
// header to leaves. Readers count themselves in and out so the writer
// knows when the version's blocks may be reused; nothing waits on the
// count.
type pbSnapshot struct {
	tree         core.Tree
	version, lsn uint64
	refs         atomic.Int64
	since        int64 // writer-owned: when a superseded version was first found still held
}

func (s *pbSnapshot) Get(k core.Key) (core.TID, bool) { return s.tree.Search(k) }

func (s *pbSnapshot) GetBatch(keys []core.Key, tids []core.TID, found []bool) {
	s.tree.SearchBatch(keys, tids, found)
}

// Run is the version's scanner; the version is never written, so its
// child words stay valid for as long as the snapshot is pinned.
func (s *pbSnapshot) Run(start, end core.Key) Run { return s.tree.NewScan(start, end) }

func (s *pbSnapshot) AppendPairs(dst []core.Pair) []core.Pair { return s.tree.AppendPairs(dst) }

func (s *pbSnapshot) Version() uint64 { return s.version }

func (s *pbSnapshot) LSN() uint64 { return s.lsn }

func (s *pbSnapshot) Count() int { return s.tree.Len() }

func (s *pbSnapshot) Release() { s.refs.Add(-1) }

// PBTree implements Backend on one pB+-Tree per shard and its
// versions. The zero value is not usable; construct with NewPBTree.
type PBTree struct {
	tree core.Config
	fill float64
	fs   storage.FS // nil = non-durable
	dir  string

	// snap is the newest version, which every new reader gets. held is
	// writer-owned: the superseded versions a reader may still hold,
	// oldest first — a point read's for microseconds, a cursor's until
	// it closes.
	snap atomic.Pointer[pbSnapshot]
	held []*pbSnapshot

	// What Stats reports of the arena, stored by the writer after each
	// publication.
	blocks, copied, retired, pinnedSince atomic.Int64

	// ckptBytes is the size of the newest checkpoint the engine wrote
	// or recovered from (Stats.CheckpointBytes).
	ckptBytes atomic.Int64

	// Recovery-phase state, discarded at Seal: the pairs of the
	// checkpoint Recover loaded or of Bootstrap's seed, and the WAL
	// tail Replay logged after them.
	base Seed
	log  replayLog
}

// NewPBTree builds a pB+-Tree engine. tree and fill must already be
// validated (the store's config defaulting does this); fs is nil for a
// non-durable engine, otherwise dir is the shard directory the engine
// keeps its checkpoints in.
func NewPBTree(tree core.Config, fill float64, fs storage.FS, dir string) *PBTree {
	return &PBTree{tree: tree, fill: fill, fs: fs, dir: dir}
}

// listCkpts returns the checkpoint LSNs of the shard directory, newest
// first, removing leftover .tmp files.
func (b *PBTree) listCkpts() ([]uint64, error) {
	names, err := b.fs.ReadDir(b.dir)
	if err != nil {
		return nil, err
	}
	RemoveTemp(b.fs, b.dir, names)
	var ckpts []uint64
	for _, n := range names {
		if lsn, ok := ParseSeq(n, "ckpt-", ".pbt"); ok {
			ckpts = append(ckpts, lsn)
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] })
	return ckpts, nil
}

// Recover implements Backend: the newest checkpoint that actually
// decodes wins; older ones are the fallback if its bytes were damaged
// at rest. Its pairs wait for Seal, which builds the tree once.
func (b *PBTree) Recover() (uint64, bool, error) {
	if b.fs == nil {
		return 0, false, nil
	}
	ckpts, err := b.listCkpts()
	if err != nil {
		return 0, false, err
	}
	for _, lsn := range ckpts {
		f, err := b.fs.Open(path.Join(b.dir, CheckpointName(lsn)))
		if err != nil {
			continue
		}
		pairs, lerr := core.ReadPairs(f)
		f.Close()
		if lerr == nil {
			b.base = All(pairs)
			b.ckptBytes.Store(core.EncodedSize(len(pairs)))
			return lsn, true, nil
		}
	}
	return 0, len(ckpts) > 0, nil
}

// Bootstrap implements Backend.
func (b *PBTree) Bootstrap(seed Seed) error {
	b.base = seed
	return nil
}

// Replay implements Backend: the record is only logged; Seal applies
// the whole tail at once.
func (b *PBTree) Replay(w Write) error {
	b.log.add(w)
	return nil
}

// Seal implements Backend: merge the replayed tail into the recovered
// or seed pairs, bulkload the tree from them, and publish its first
// version. A seed with no tail is read in place; otherwise the
// bulkload rejects pairs that are not sorted and unique.
func (b *PBTree) Seal(version uint64) error {
	t, err := core.New(b.tree)
	if err != nil {
		return err
	}
	if s := b.base; s.Shard != nil && len(b.log.words) == 0 {
		err = t.BulkloadSelected(s.Pairs, s.Shard, s.ID, s.N, b.fill)
	} else {
		err = t.Bulkload(b.log.merge(s.Selected()), b.fill)
	}
	b.base, b.log = Seed{}, replayLog{}
	if err != nil {
		return err
	}
	b.publish(&pbSnapshot{tree: *t, version: version, lsn: version - 1})
	return nil
}

// publish makes s the version new readers get.
func (b *PBTree) publish(s *pbSnapshot) {
	b.snap.Store(s)
	b.blocks.Store(int64(s.tree.Blocks()))
}

// ApplyBatch implements Backend: fork the published version, apply the
// batch to the fork, publish it, ack, and hand the blocks of every
// superseded version nobody holds any more back to the arena. A
// Compact write rebuilds the tree at the configured fill factor — the
// one O(shard) step, which starts a new arena and leaves the old one
// to the garbage collector with its last reader; a failed rebuild
// degrades to serving the uncompacted version and is reported through
// ack.
func (b *PBTree) ApplyBatch(ws []Write, version, lsn uint64, ack func(error)) error {
	cur := b.snap.Load()
	next := &pbSnapshot{version: version, lsn: lsn}
	cur.tree.ForkInto(&next.tree)
	compact := false
	for _, w := range ws {
		applyWrite(&next.tree, w)
		compact = compact || w.Compact
	}
	b.copied.Add(int64(next.tree.Copied()))
	var cloneErr error
	if compact {
		if nt, err := next.tree.CloneFrozen(b.fill); err == nil {
			next = &pbSnapshot{tree: *nt, version: version, lsn: lsn}
		} else {
			cloneErr = err // serve the uncompacted version; report via ack
		}
	}
	b.publish(next)
	// Acks fire as soon as the write is visible to new readers.
	ack(cloneErr)

	// A version is done with once it is superseded and its count is
	// back to zero (Snapshot's revalidation keeps a late reader off it).
	// Versions still held stay queued; only block reuse waits for them.
	b.held = append(b.held, cur)
	kept, oldest := b.held[:0], int64(0)
	for _, s := range b.held {
		if s.refs.Load() == 0 {
			next.tree.Release(&s.tree)
			continue
		}
		if s.since == 0 {
			s.since = time.Now().UnixNano()
		}
		if kept = append(kept, s); oldest == 0 {
			oldest = s.since
		}
	}
	clear(b.held[len(kept):])
	b.held = kept
	b.pinnedSince.Store(oldest)
	b.retired.Store(int64(next.tree.Retired()))
	return nil
}

// Snapshot implements Backend. The increment-then-revalidate dance
// closes the race with the writer's look at the count of a version it
// has just superseded: a reader that loses the race releases and
// retries on the newer version, without having touched the old one.
func (b *PBTree) Snapshot() Snapshot {
	for {
		s := b.snap.Load()
		s.refs.Add(1)
		if b.snap.Load() == s {
			return s
		}
		s.refs.Add(-1)
	}
}

// Checkpoint implements Backend: serialize the published tree as the
// checkpoint for lsn via the tmp+rename protocol (a readable
// ckpt-*.pbt is always complete), then prune the checkpoints it
// supersedes.
func (b *PBTree) Checkpoint(lsn uint64) error {
	if b.fs == nil {
		return nil
	}
	tree := &b.snap.Load().tree // a published version never changes
	var n int64
	err := WriteAtomic(b.fs, path.Join(b.dir, CheckpointName(lsn)), func(w io.Writer) (err error) {
		n, err = tree.WriteTo(w)
		return err
	})
	if err != nil {
		return err
	}
	b.ckptBytes.Store(n)
	// Best-effort prune: leftover checkpoints are harmless (recovery
	// skips them) and reclaimed next time.
	if ckpts, err := b.listCkpts(); err == nil {
		for _, old := range ckpts {
			if old < lsn {
				_ = b.fs.Remove(path.Join(b.dir, CheckpointName(old)))
			}
		}
	}
	return nil
}

// Stats implements Backend. A published version's header never
// changes, so any goroutine may read it.
func (b *PBTree) Stats() Stats {
	s := b.snap.Load()
	return Stats{
		Backend:     "pbtree",
		Version:     s.version,
		Count:       s.tree.Len(),
		Height:      s.tree.Height(),
		Blocks:      int(b.blocks.Load()),
		Copied:      uint64(b.copied.Load()),
		Retired:     int(b.retired.Load()),
		PinnedSince: b.pinnedSince.Load(),

		CheckpointBytes: b.ckptBytes.Load(),
	}
}

// Close implements Backend. The trees are garbage-collected; nothing
// to flush (the store owns the WAL).
func (b *PBTree) Close() error { return nil }
