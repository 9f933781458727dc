package backend

// PBTree is the read-optimized engine extracted from the original
// store: the paper's prefetch-optimized pB+-Tree behind the classic
// double-buffer publication scheme. Publishing a batch is O(batch),
// not O(shard): the batch is applied to a writer-owned spare tree, the
// spare is atomically published, and the previous tree is recycled
// into the next spare once its readers drain. Durability is a full
// tree snapshot per checkpoint (ckpt-<lsn16x>.pbt, tmp+fsync+rename).

import (
	"fmt"
	"path"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"pbtree/internal/core"
	"pbtree/internal/memsys"
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

// drainSpins bounds how many scheduler yields ApplyBatch spends
// waiting for the previous snapshot's readers before giving the tree
// up to them. Point reads drain in a handful of yields; anything still
// pinned after this many is a long-lived reader (a streaming-scan
// cursor) that may hold the snapshot for seconds.
const drainSpins = 4096

// pbSnapshot is one immutable published version. Readers acquire it
// with a refcount so the writer knows when the previous tree can be
// recycled.
type pbSnapshot struct {
	tree    *core.Tree
	version uint64
	count   int
	refs    atomic.Int64
}

func (s *pbSnapshot) Get(k core.Key) (core.TID, bool) { return s.tree.Search(k) }

func (s *pbSnapshot) GetBatch(keys []core.Key, tids []core.TID, found []bool) {
	s.tree.SearchBatch(keys, tids, found)
}

// Scan copies straight into the slice it returns: one allocation for a
// result of up to 1024 rows, doubling only past that.
func (s *pbSnapshot) Scan(start, end core.Key, limit int) []core.Pair {
	if limit <= 0 {
		return nil
	}
	sc := s.tree.NewScan(start, end)
	run := make([]core.Pair, min(limit, 1024))
	n := 0
	for {
		got := sc.NextPairs(run[n:])
		n += got
		if got == 0 || n == limit {
			return run[:n]
		}
		if n == len(run) {
			run = slices.Grow(run, min(limit-n, n))
			run = run[:min(limit, cap(run))]
		}
	}
}

func (s *pbSnapshot) AppendPairs(dst []core.Pair) []core.Pair { return s.tree.AppendPairs(dst) }

func (s *pbSnapshot) Version() uint64 { return s.version }

func (s *pbSnapshot) Count() int { return s.count }

func (s *pbSnapshot) Release() { s.refs.Add(-1) }

// PBTree implements Backend on a pair of pB+-Trees (published +
// spare). The zero value is not usable; construct with NewPBTree.
type PBTree struct {
	tree core.Config
	fill float64
	fs   storage.FS // nil = non-durable
	dir  string

	snap  atomic.Pointer[pbSnapshot]
	spare *core.Tree // writer-owned; equals the published contents

	// Recovery-phase state, discarded at Seal.
	rec  *core.Tree  // scratch replay tree (checkpoint + WAL tail)
	boot []core.Pair // Bootstrap's seed pairs
}

// NewPBTree builds a pB+-Tree engine. tree and fill must already be
// validated (the store's config defaulting does this); fs is nil for a
// non-durable engine, otherwise dir is the shard directory the engine
// keeps its checkpoints in.
func NewPBTree(tree core.Config, fill float64, fs storage.FS, dir string) *PBTree {
	return &PBTree{tree: tree, fill: fill, fs: fs, dir: dir}
}

// newTree bulkloads one tree with the engine's configuration.
func (b *PBTree) newTree(pairs []core.Pair) (*core.Tree, error) {
	t, err := core.New(b.tree)
	if err != nil {
		return nil, err
	}
	if err := t.Bulkload(pairs, b.fill); err != nil {
		return nil, err
	}
	return t, nil
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
// loads wins; older ones are the fallback if its bytes were damaged at
// rest.
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
		t, lerr := core.Load(f, memsys.DefaultNative(), b.fill)
		f.Close()
		if lerr == nil {
			b.rec = t
			return lsn, true, nil
		}
	}
	return 0, len(ckpts) > 0, nil
}

// Bootstrap implements Backend.
func (b *PBTree) Bootstrap(seed []core.Pair) error {
	b.boot = seed
	return nil
}

// Replay implements Backend, applying one WAL record onto the
// recovery scratch tree.
func (b *PBTree) Replay(w Write) error {
	if b.rec == nil {
		// Scratch container for replay without a checkpoint; only its
		// contents survive (Seal re-bulkloads with the engine's own
		// tree configuration).
		t, err := core.New(core.Config{Width: 8, Prefetch: true, Mem: memsys.DefaultNative()})
		if err != nil {
			return err
		}
		if err := t.Bulkload(nil, b.fill); err != nil {
			return err
		}
		b.rec = t
	}
	applyWrite(b.rec, w)
	return nil
}

// Seal implements Backend: bulkload the published and spare trees from
// whatever recovery or Bootstrap produced, and publish the first
// snapshot.
func (b *PBTree) Seal(version uint64) error {
	pairs := b.boot
	if b.rec != nil {
		pairs = b.rec.AppendPairs(make([]core.Pair, 0, b.rec.Len()))
	}
	b.rec, b.boot = nil, nil
	pub, err := b.newTree(pairs)
	if err != nil {
		return err
	}
	spare, err := b.newTree(pairs)
	if err != nil {
		return err
	}
	b.spare = spare
	snap := &pbSnapshot{tree: pub, version: version, count: pub.Len()}
	b.snap.Store(snap)
	return nil
}

// ApplyBatch implements Backend: apply to the spare, publish it, ack,
// then recycle the previous tree into the next spare once its readers
// drain. A Compact write rebuilds both trees at the configured fill
// factor; a failed rebuild degrades to serving the uncompacted
// contents and is reported through ack.
func (b *PBTree) ApplyBatch(ws []Write, version, _ uint64, ack func(error)) error {
	compact := false
	for _, w := range ws {
		applyWrite(b.spare, w)
		compact = compact || w.Compact
	}
	var cloneErr error
	if compact {
		if nt, err := b.spare.CloneFrozen(b.fill); err == nil {
			b.spare = nt
		} else {
			cloneErr = err // serve the uncompacted spare; report via ack
		}
	}
	old := b.snap.Load()
	next := &pbSnapshot{tree: b.spare, version: version, count: b.spare.Len()}
	b.snap.Store(next)
	// Acks fire as soon as the write is visible to new readers.
	ack(cloneErr)
	// Recycle the previous tree once its readers drain, replaying the
	// batch so it catches up to the published contents. The drain spin
	// is bounded: a long-lived reader (a streaming-scan cursor pinning
	// the snapshot for seconds) must not wedge the write path, so after
	// drainSpins yields the applier abandons the old tree to its readers
	// — the GC reclaims it when the last Release lands — and clones the
	// published tree into a fresh spare instead.
	drained := true
	for spin := 0; old.refs.Load() != 0; spin++ {
		if spin >= drainSpins {
			drained = false
			break
		}
		runtime.Gosched()
	}
	if !drained || compact {
		if nt, err := b.spare.CloneFrozen(b.fill); err == nil {
			b.spare = nt
			return nil
		}
		// Clone failed: fall back to replaying onto the old tree, which
		// means waiting out its readers after all — contents stay
		// correct even if the occupancy rebuild failed.
		for old.refs.Load() != 0 {
			runtime.Gosched()
		}
	}
	recycled := old.tree
	for _, w := range ws {
		applyWrite(recycled, w)
	}
	b.spare = recycled
	return nil
}

// Snapshot implements Backend. The increment-then-revalidate dance
// closes the race with the writer's drain check: a reader that loses
// the race releases and retries on the newer snapshot.
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
	tree := b.snap.Load().tree // immutable to this goroutine until the next batch
	final := path.Join(b.dir, CheckpointName(lsn))
	tmp := final + ".tmp"
	f, err := b.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := tree.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := b.fs.Rename(tmp, final); err != nil {
		return err
	}
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

// Stats implements Backend.
func (b *PBTree) Stats() Stats {
	s := b.snap.Load()
	return Stats{
		Backend: "pbtree",
		Version: s.version,
		Count:   s.count,
		Height:  s.tree.Height(),
	}
}

// Close implements Backend. The trees are garbage-collected; nothing
// to flush (the store owns the WAL).
func (b *PBTree) Close() error { return nil }
