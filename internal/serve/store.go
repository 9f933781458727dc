package serve

import (
	"errors"
	"fmt"
	"io"
	"path"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pbtree/internal/backend"
	"pbtree/internal/core"
	"pbtree/internal/lsm"
	"pbtree/internal/memsys"
	"pbtree/internal/obs"
)

// ErrOverloaded is returned when a shard's mutation queue is full
// before any part of the write was enqueued, so the write had no
// effect: the caller should back off and retry rather than queue
// without bound.
var ErrOverloaded = errors.New("serve: shard mutation queue full")

// ErrPartialWrite is returned when a shard's mutation queue was full
// after another shard had taken its part of a multi-shard write: that
// part applies, the rest does not. It is not ErrOverloaded, because a
// retry is no longer a write that had no effect.
var ErrPartialWrite = errors.New("serve: shard mutation queue full after part of the write was enqueued")

// ErrClosed is returned for operations on a closed store.
var ErrClosed = errors.New("serve: store is closed")

// Storage backend names for StoreConfig.Backend and the server's
// -backend flag.
const (
	// BackendPBTree serves each shard from the paper's
	// prefetch-optimized pB+-Tree, published as copy-on-write versions
	// — the read-optimized engine, and the default.
	BackendPBTree = "pbtree"

	// BackendLSM serves each shard from a log-structured merge engine
	// (memtable + bloom-filtered sorted runs) — the write-optimized
	// engine. See package lsm.
	BackendLSM = "lsm"
)

// StoreConfig configures a sharded store.
type StoreConfig struct {
	// Shards is the number of hash partitions, each an independent
	// storage engine with its own single-writer goroutine, at most
	// MaxShards. Zero selects GOMAXPROCS, capped at MaxShards.
	Shards int

	// Backend selects the per-shard storage engine, BackendPBTree or
	// BackendLSM. Empty selects BackendPBTree. The choice is part of
	// the on-disk identity of a durable store (recorded in the
	// MANIFEST): a directory written by one engine cannot be reopened
	// with the other.
	Backend string

	// Tree is the per-shard tree configuration (pbtree backend). Mem
	// must be nil (one zero-cost native model, shared by every shard,
	// is created) or a concurrency-safe model (*memsys.Native); Trace
	// must be nil, since tracers are single-threaded. Serving trees
	// are therefore always native trees: they search branchlessly and
	// issue real prefetch instructions, with nothing to switch on.
	// JumpArray must be JumpNone, as on every native tree (New refuses
	// anything else): scans prefetch through the bottom non-leaf
	// nodes. The zero value serves on p8B+-Trees, the paper's sweet
	// spot.
	Tree core.Config

	// LSM is the per-shard engine configuration for BackendLSM. The
	// zero value selects the package lsm defaults.
	LSM lsm.Config

	// Durable, when non-nil, persists every shard with a write-ahead
	// log + engine checkpoints under Durable.Dir and recovers the
	// contents on Open. Recovery runs per shard inside the shard's
	// writer goroutine: shards become readable the moment their own
	// recovery finishes, while the others are still replaying. Open's
	// pairs are only the bootstrap contents of a fresh directory; an
	// existing directory wins.
	Durable *DurableConfig

	// Metrics, when non-nil, receives the durability counters (WAL
	// appends, fsyncs, checkpoints, recovery). Typically shared with
	// ServerConfig.Metrics.
	Metrics *obs.Metrics

	// Replica opens the store as a replication follower: normal writes
	// (Put, Delete, PutBatch, Compact) are rejected with ErrNotPrimary
	// and the shards mutate only through ReplicaApply /
	// ReplicaInstall, until Promote turns the store into a primary.
	// Requires Durable (a follower's own WAL is what makes it
	// promotable).
	Replica bool

	// Epoch is the minimum replication epoch to run at. A fresh
	// durable directory is initialized to it; an existing MANIFEST's
	// epoch is raised to it (never lowered — the fencing token is
	// monotone). Zero selects 1, and is the only valid value for a
	// non-durable store.
	Epoch uint64
}

// withDefaults resolves and validates the configuration.
func (c StoreConfig) withDefaults() (StoreConfig, error) {
	if c.Shards == 0 {
		c.Shards = min(runtime.GOMAXPROCS(0), MaxShards)
	}
	if c.Shards < 1 || c.Shards > MaxShards {
		return c, fmt.Errorf("serve: shard count %d outside [1, %d]", c.Shards, MaxShards)
	}
	switch c.Backend {
	case "":
		c.Backend = BackendPBTree
	case BackendPBTree, BackendLSM:
	default:
		return c, fmt.Errorf("serve: unknown backend %q (want %q or %q)", c.Backend, BackendPBTree, BackendLSM)
	}
	if c.Tree.Trace != nil {
		return c, fmt.Errorf("serve: tree tracers are single-threaded; serving trees cannot carry one")
	}
	if _, bad := c.Tree.Mem.(*memsys.Hierarchy); bad {
		return c, fmt.Errorf("serve: the simulated hierarchy is single-threaded; serve on a native model")
	}
	if c.Tree.Width == 0 {
		c.Tree.Width = 8
		c.Tree.Prefetch = true
	}
	if memsys.IsNil(c.Tree.Mem) {
		c.Tree.Mem = memsys.DefaultNative()
	}
	if _, err := core.New(c.Tree); err != nil {
		return c, err // refused here, not by every shard's writer
	}
	l, err := c.LSM.WithDefaults()
	if err != nil {
		return c, err
	}
	c.LSM = l
	if c.Durable != nil {
		d, err := c.Durable.withDefaults()
		if err != nil {
			return c, err
		}
		c.Durable = &d
	}
	if c.Replica && c.Durable == nil {
		return c, errors.New("serve: a replica store must be durable (its WAL is what makes it promotable)")
	}
	if c.Epoch != 0 && c.Durable == nil {
		return c, errors.New("serve: a replication epoch needs a durable store (it is persisted in the MANIFEST)")
	}
	return c, nil
}

const (
	// MaxShards bounds StoreConfig.Shards: Open notes a pair's shard in a byte.
	MaxShards = 256

	// fill is the pbtree engine's bulkload/rebuild fill factor, leaving
	// slack for inserts.
	fill = 0.8

	// maxBatch bounds how many queued mutations one snapshot
	// publication absorbs.
	maxBatch = 256

	// queueLen bounds each shard's mutation queue; a full queue makes
	// writes fail fast with ErrOverloaded (backpressure, not
	// buffering).
	queueLen = 1024
)

// Lookup is the result of one point lookup in a batch.
type Lookup struct {
	TID   core.TID // the key's tuple ID, valid only when Found
	Found bool     // whether the key was present
}

// mutation is one queued write. A mutation's puts and deletes are
// applied atomically: they land in the same published snapshot.
// Exactly one of the replication fields (repl, install) may be set
// instead of puts/dels/compact; such a mutation runs alone in the
// shard writer, outside the group-commit batch (replhooks.go).
type mutation struct {
	puts    []core.Pair
	dels    []core.Key
	compact bool
	done    chan result
	lsn     uint64 // writer-owned: the LSN of the mutation's WAL record

	repl    *replApply   // follower: apply shipped WAL frames
	install *replInstall // follower: install a shipped checkpoint

	// Lifecycle attribution (DESIGN.md §12): when sp is non-nil the
	// shard writer stamps queue_wait, wal_append, wal_fsync and apply
	// onto it with atomic adds (a multi-shard write is stamped by
	// several writers concurrently). enq is the obs.Nanotime enqueue
	// timestamp. The requester's receive on done orders the stamps
	// before it reads the span.
	sp  *obs.Span
	enq int64
}

// result is the shard writer's answer to one mutation: its outcome
// and the LSN of its WAL record (0 on a store that is not durable).
type result struct {
	err error
	lsn uint64
}

// shard is one hash partition: a storage engine publishing immutable
// snapshots, and the single-writer mutation queue feeding it.
type shard struct {
	be backend.Backend

	ops     chan mutation
	drained chan struct{}

	// Readiness: a durable shard publishes its first snapshot only
	// after recovery, inside its writer goroutine. Reads block on
	// ready until then (isReady is the lock-free fast path); readyErr
	// is set before ready closes and makes all writes fail.
	ready    chan struct{}
	isReady  atomic.Bool
	readyErr error

	// Writer-owned state.
	idx       int             // shard index (directory name)
	version   uint64          // last published snapshot version
	wal       *walWriter      // nil when the store is not durable
	lsn       uint64          // last LSN appended to the WAL
	walErr    error           // fail-stop: set on WAL append failure
	ws        []backend.Write // per-batch scratch
	recovered RecoveryStats
	copied    uint64 // engine blocks copied and retired, as last
	retired   int    // added to the metric cells

	// The batch being applied, for ack — the callback the engine gets
	// on every ApplyBatch, made once per shard: its mutations, whether
	// any of them is traced and when the apply began.
	ack        func(error)
	batch      []mutation
	traced     bool
	applyStart int64

	durErr atomic.Pointer[string] // last durability error, for Stats

	// Writer-maintained counters, read via Stats.
	puts, dels, published atomic.Uint64

	// Gauge state for the admin plane's /metrics (WriteMetrics):
	// lastPub is the obs.Nanotime of the last snapshot publication
	// (snapshot age); walBacklog and walBacklogBytes count the WAL
	// records and bytes committed since the last engine checkpoint
	// (recovery debt, and one side of checkpointDue).
	lastPub         atomic.Int64
	walBacklog      atomic.Uint64
	walBacklogBytes atomic.Int64

	// applied is the shard's durably committed LSN, stored after every
	// WAL group commit (and at recovery); on a follower, only once the
	// records are also published, so a read there sees all it covers.
	// It is the lock-free replication cursor: what a follower reports
	// upstream, and what STATUS probes read.
	applied atomic.Uint64

	// lsn0Empty reports that this incarnation's state at LSN 0 was
	// empty, so a follower can reproduce the shard by replaying WAL
	// records 1..n from nothing. False for a shard bootstrapped from
	// seed pairs (the seed lives only in its LSN-0 checkpoint) and,
	// conservatively, for any recovered prior incarnation; WALTail
	// then redirects cursor-0 followers to checkpoint shipping.
	lsn0Empty bool
}

// noteCommit adds one WAL group commit's records and bytes to the
// backlog gauges.
func (sh *shard) noteCommit(records uint64, bytes int) {
	sh.walBacklog.Add(records)
	sh.walBacklogBytes.Add(int64(bytes))
}

// clearBacklog zeroes the backlog gauges after an engine checkpoint.
func (sh *shard) clearBacklog() {
	sh.walBacklog.Store(0)
	sh.walBacklogBytes.Store(0)
}

// markReady publishes the recovery outcome and unblocks readers.
func (sh *shard) markReady(err error) {
	sh.readyErr = err
	sh.lastPub.Store(obs.Nanotime())
	sh.isReady.Store(true)
	close(sh.ready)
}

// waitReady blocks until the shard's first snapshot is published and
// returns the recovery error, if any.
func (sh *shard) waitReady() error {
	if !sh.isReady.Load() {
		<-sh.ready
	}
	return sh.readyErr
}

// setDurErr records a durability error for Stats.
func (sh *shard) setDurErr(err error) {
	s := err.Error()
	sh.durErr.Store(&s)
}

// Store is a sharded, snapshot-isolated key→tupleID store. All read
// methods are lock-free and safe for any number of goroutines; writes
// are serialized per shard through its writer goroutine. Each shard
// serves from the storage engine selected by StoreConfig.Backend.
type Store struct {
	cfg    StoreConfig
	shards []*shard

	mu     sync.RWMutex // guards closed against concurrent enqueues
	closed bool

	// Replication identity (replhooks.go). epoch is the fencing token
	// from the MANIFEST; fencedBy records the highest rival epoch seen
	// (the store is fenced while fencedBy > epoch); replica flags
	// follower mode. manMu serializes manifest rewrites (promotion,
	// adoption).
	epoch    atomic.Uint64
	fencedBy atomic.Uint64
	replica  atomic.Bool
	manMu    sync.Mutex

	// gate, when non-nil, is the synchronous-replication commit gate:
	// called by a writing caller, once the shard writer has answered,
	// with the shard and the LSN of the caller's WAL record
	// (SetCommitGate, replicated).
	gate atomic.Pointer[func(shard int, lsn uint64) error]

	// spare is a closed cursor Scan reuses, so that a scan allocates
	// only its result; a Scan that finds it taken makes its own.
	spare atomic.Pointer[StoreCursor]

	// waiters is the free list of one-shard writes' waiters (getWaiter).
	waiters chan *waiter
}

// Open builds a store from the given pairs (sorted by key, no
// duplicates, which it checks) and starts the shard writers.
//
// Every shard starts in its own writer goroutine, reading pairs in
// place: the caller must not modify them until WaitReady returns, which
// blocks until every shard is up and reports the first failure. With
// cfg.Durable set, the pairs only seed a fresh data directory; an
// existing directory is recovered instead (engine artifacts + WAL
// tail).
func Open(cfg StoreConfig, pairs []core.Pair) (*Store, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	st := &Store{cfg: cfg, shards: make([]*shard, cfg.Shards), waiters: make(chan *waiter, 8*window)}

	// One pass over the seed: check it, and note each pair's shard in a
	// byte and each shard's count. No shard's pairs are copied out.
	sel, counts := make([]uint8, len(pairs)), make([]int, cfg.Shards)
	for i, p := range pairs {
		if i > 0 && p.Key <= pairs[i-1].Key {
			return nil, fmt.Errorf("serve: seed not sorted/unique at %d", i)
		}
		s := st.ShardOf(p.Key)
		sel[i] = uint8(s)
		counts[s]++
	}
	st.epoch.Store(1)
	st.replica.Store(cfg.Replica)
	if cfg.Durable != nil {
		if err := cfg.Durable.FS.MkdirAll("."); err != nil {
			return nil, err
		}
		epoch, err := loadOrInitManifest(cfg.Durable.FS, cfg.Shards, cfg.Backend, cfg.Epoch)
		if err != nil {
			return nil, err
		}
		st.epoch.Store(epoch)
	}
	for i := range st.shards {
		sh := &shard{
			idx:     i,
			be:      st.newBackend(i),
			ops:     make(chan mutation, queueLen),
			drained: make(chan struct{}),
			ready:   make(chan struct{}),
		}
		sh.ack = func(err error) { st.acked(sh, err) }
		st.shards[i] = sh
		go st.writer(sh, backend.Seed{Pairs: pairs, Shard: sel, ID: uint8(i), N: counts[i]})
	}
	return st, nil
}

// newBackend constructs one shard's storage engine from the resolved
// configuration.
func (st *Store) newBackend(idx int) backend.Backend {
	var fsys FS
	dir := ""
	if st.cfg.Durable != nil {
		fsys = st.cfg.Durable.FS
		dir = shardDirName(idx)
	}
	if st.cfg.Backend == BackendLSM {
		return lsm.New(st.cfg.LSM, fsys, dir)
	}
	return backend.NewPBTree(st.cfg.Tree, fill, fsys, dir)
}

// WaitReady blocks until every shard has published its first snapshot
// (for a durable store: finished recovering) and returns the first
// shard's recovery error, if any.
func (st *Store) WaitReady() error {
	var first error
	for _, sh := range st.shards {
		if err := sh.waitReady(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Recovery reports the per-shard recovery statistics of a durable
// store, blocking until recovery completes. Nil for a non-durable
// store.
func (st *Store) Recovery() []RecoveryStats {
	if st.cfg.Durable == nil {
		return nil
	}
	out := make([]RecoveryStats, len(st.shards))
	for i, sh := range st.shards {
		sh.waitReady()
		out[i] = sh.recovered
	}
	return out
}

// recoverAndPublish runs one durable shard's recovery-on-open: let the
// engine reload its artifacts, replay the WAL tail through it,
// bootstrap a fresh directory from the seed pairs, fold the recovered
// tail into a fresh engine checkpoint, open a fresh WAL segment,
// publish the first snapshot.
func (st *Store) recoverAndPublish(sh *shard, seed backend.Seed) error {
	start := time.Now()
	d := st.cfg.Durable
	dir := shardDirName(sh.idx)
	if err := d.FS.MkdirAll(dir); err != nil {
		return err
	}
	stats := RecoveryStats{Shard: sh.idx}
	ckptLSN, hadState, err := sh.be.Recover()
	if err != nil {
		return err
	}
	stats.CheckpointLSN, stats.LastLSN = ckptLSN, ckptLSN
	segs, err := listWALSegs(d.FS, dir)
	if err != nil {
		return err
	}
	if !hadState && len(segs) == 0 {
		if err := sh.be.Bootstrap(seed); err != nil {
			return err
		}
		stats.Bootstrapped = true
	}
	sh.lsn0Empty = !hadState && (!stats.Bootstrapped || seed.N == 0)
	if err := replayWAL(d.FS, dir, segs, sh.be, &stats); err != nil {
		return err
	}
	if err := sh.be.Seal(stats.LastLSN + 1); err != nil {
		return err
	}
	if stats.Bootstrapped || stats.Replayed > 0 {
		// A fresh shard's seed contents become its first checkpoint,
		// so a crash before the first background checkpoint still
		// recovers them; a replayed tail is folded now, so the
		// segments it came from can be pruned and the next recovery is
		// as short as this one.
		if err := st.engineCheckpoint(sh, stats.LastLSN); err != nil {
			return err
		}
	}
	w, err := newWALWriter(d.FS, path.Join(dir, walSegName(stats.LastLSN+1)), d.Fsync, st.cfg.Metrics)
	if err != nil {
		return err
	}
	pruneWAL(d.FS, dir, stats.LastLSN, stats.LastLSN+1, d.WALRetain)
	stats.Pairs = sh.be.Stats().Count
	stats.Duration = time.Since(start)
	sh.wal, sh.lsn, sh.version, sh.recovered = w, stats.LastLSN, stats.LastLSN+1, stats
	sh.applied.Store(stats.LastLSN)
	st.cfg.Metrics.Add(obs.Recoveries, 1)
	st.cfg.Metrics.Add(obs.RecoveryMS, stats.Duration.Round(time.Millisecond).Milliseconds())
	st.cfg.Metrics.Add(obs.WALReplayed, int64(stats.Replayed))
	return nil
}

// ShardOf reports which shard owns a key: a splitmix64-style hash of
// the key, so adjacent keys scatter, modulo the shard count — a mask
// when the count is a power of two.
func (st *Store) ShardOf(k core.Key) int {
	x := uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if n := uint64(len(st.shards)); n&(n-1) != 0 {
		return int(x % n)
	}
	return int(x & uint64(len(st.shards)-1))
}

// Shards reports the number of shards.
func (st *Store) Shards() int { return len(st.shards) }

// writer is the single mutator of one shard: it drains the queue in
// batches and hands each batch to the engine's ApplyBatch, which
// publishes one snapshot per batch and acks as soon as the writes are
// visible to new readers.
//
// The writer first brings the shard up — a durable one recovers, an
// in-memory one bootstraps from its seed — so other shards serve while
// this one bulkloads or replays. For a durable store it then prepends a WAL group commit to every batch, rotates the log every
// CheckpointEvery records and asks the engine to checkpoint when
// checkpointDue says so. If the start fails the shard fail-stops: it
// publishes an empty snapshot so readers never block forever, and
// acknowledges every write with the error.
func (st *Store) writer(sh *shard, seed backend.Seed) {
	defer close(sh.drained)
	var err error
	if st.cfg.Durable != nil {
		err = st.recoverAndPublish(sh, seed)
	} else if err = sh.be.Bootstrap(seed); err == nil {
		sh.version, err = 1, sh.be.Seal(1)
	}
	if err != nil {
		sh.setDurErr(err)
		if fb := st.newBackend(sh.idx); fb.Seal(1) == nil { // empty
			sh.be, sh.version = fb, 1
		}
		err = fmt.Errorf("serve: shard %d recovery: %w", sh.idx, err)
		sh.markReady(err)
		for m := range sh.ops {
			ackAll([]mutation{m}, err)
		}
		return
	}
	sh.markReady(nil)
	batch := make([]mutation, 0, maxBatch)
	for m := range sh.ops {
		// Replication mutations run alone, outside the group-commit
		// batch: their LSN/epoch validation and engine swaps don't
		// compose with client batches.
		if m.isSpecial() {
			st.applySpecial(sh, m)
			continue
		}
		batch = append(batch[:0], m)
		var special *mutation
	drain:
		for len(batch) < maxBatch {
			select {
			case m2, ok := <-sh.ops:
				if !ok {
					break drain
				}
				if m2.isSpecial() {
					special = &m2
					break drain // apply the drained batch first, in order
				}
				batch = append(batch, m2)
			default:
				break drain
			}
		}
		st.applyBatch(sh, batch)
		if special != nil {
			st.applySpecial(sh, *special)
		}
	}
	if sh.wal != nil {
		// Graceful-drain flush: every acknowledged write is on disk
		// before Close returns.
		if err := sh.wal.close(); err != nil {
			sh.setDurErr(err)
		}
	}
	if err := sh.be.Close(); err != nil {
		sh.setDurErr(err)
	}
}

// ackAll delivers one outcome to every waiter of a batch, each with
// its own LSN.
func ackAll(batch []mutation, err error) {
	for _, m := range batch {
		if m.done != nil {
			m.done <- result{err: err, lsn: m.lsn}
		}
	}
}

// applyBatch applies one batch of mutations as one engine publication.
// In durable mode the batch is group-committed to the WAL first — one
// record per mutation (mutations are the atomic unit), one write and
// at most one fsync for the whole batch — and nothing is applied or
// acknowledged unless the commit succeeds. A WAL failure fail-stops
// the shard's write path: the log tail is no longer trustworthy, so
// accepting more writes would acknowledge data that cannot be
// recovered. An engine housekeeping failure (flush, compaction) is
// recorded like a checkpoint failure: the batch itself is already
// applied and acknowledged.
func (st *Store) applyBatch(sh *shard, batch []mutation) {
	// Lifecycle attribution: stamp queue wait at pickup and remember
	// whether anything in the batch is traced at all, so the untraced
	// path takes a single boolean test per stage site.
	traced := false
	now := obs.Nanotime()
	for _, m := range batch {
		if m.sp != nil {
			traced = true
			m.sp.Add(obs.StageQueueWait, now-m.enq)
		}
	}
	if sh.walErr != nil {
		ackAll(batch, sh.walErr)
		return
	}
	// The fencing check on every append: a primary that has seen a
	// higher epoch (a promoted follower exists) must not extend its WAL
	// timeline — acknowledging the write would split the brain.
	if st.Fenced() {
		ackAll(batch, ErrFenced)
		return
	}
	if sh.wal != nil {
		walStart := now
		for i, m := range batch {
			sh.lsn++
			// Compact-only mutations log an empty record: every
			// acknowledged mutation owns an LSN, which keeps published
			// versions monotonic across restarts.
			sh.wal.add(sh.lsn, m.puts, m.dels)
			batch[i].lsn = sh.lsn
		}
		staged := len(sh.wal.buf)
		if err := sh.wal.commit(); err != nil {
			sh.walErr = fmt.Errorf("serve: shard %d WAL append: %w", sh.idx, err)
			sh.setDurErr(err)
			ackAll(batch, sh.walErr)
			return
		}
		sh.applied.Store(sh.lsn)
		sh.noteCommit(uint64(len(batch)), staged)
		if traced {
			// Every member waited for the whole group commit, so each
			// span gets the full append and fsync costs — that is the
			// latency the request actually experienced.
			syncNS := sh.wal.takeSyncNS()
			appendNS := obs.Nanotime() - walStart - syncNS
			for _, m := range batch {
				if m.sp != nil {
					m.sp.Add(obs.StageWALAppend, appendNS)
					m.sp.Add(obs.StageWALFsync, syncNS)
				}
			}
		} else {
			sh.wal.takeSyncNS()
		}
	}
	sh.ws = sh.ws[:0]
	for _, m := range batch {
		sh.ws = append(sh.ws, backend.Write{Puts: m.puts, Dels: m.dels, Compact: m.compact})
	}
	sh.version++
	lsn := sh.lsn
	if sh.wal == nil {
		lsn = sh.version // non-durable: versions double as artifact labels
	}
	sh.batch, sh.traced, sh.applyStart = batch, traced, obs.Nanotime()
	err := sh.be.ApplyBatch(sh.ws, sh.version, lsn, sh.ack)
	bs := sh.be.Stats()
	st.cfg.Metrics.Add(obs.SnapBlocksCopied, int64(bs.Copied-sh.copied))
	st.cfg.Metrics.Add(obs.SnapRetiredBlocks, int64(bs.Retired-sh.retired))
	sh.copied, sh.retired = bs.Copied, bs.Retired
	if err != nil {
		sh.setDurErr(err)
	}
	if sh.wal != nil {
		st.housekeepWAL(sh)
	}
}

// acked runs inside the engine's ApplyBatch, as soon as the batch
// noted in sh is visible to new readers: it stamps the apply stage and
// answers every waiter. The writer moves on; a synchronously
// replicated write's caller waits for the follower (replicated).
func (st *Store) acked(sh *shard, ackErr error) {
	sh.published.Add(1)
	sh.lastPub.Store(obs.Nanotime())
	if sh.traced {
		d := obs.Nanotime() - sh.applyStart
		for _, m := range sh.batch {
			if m.sp != nil {
				m.sp.Add(obs.StageApply, d)
			}
		}
	}
	ackAll(sh.batch, ackErr)
}

// housekeepWAL is the log cadence of the writer and of the follower
// apply path, run after each group commit. The shard checkpoints when
// checkpointDue says so, rotating its segment with it, and otherwise
// rotates its segment every CheckpointEvery records, so a segment
// stays as small as the record floor makes it whatever the cadence of
// checkpoints.
func (st *Store) housekeepWAL(sh *shard) {
	if st.checkpointDue(sh) {
		st.checkpoint(sh)
	} else if sh.wal.records >= uint64(st.cfg.Durable.CheckpointEvery) {
		st.rotateWAL(sh)
	}
}

// checkpointDue reports whether the WAL committed since the shard's
// last engine checkpoint holds at least CheckpointEvery records and at
// least as many bytes as that checkpoint wrote. So checkpoint bytes
// never outgrow log bytes however large the shard is, and recovery
// replays at most about one image's worth of log.
func (st *Store) checkpointDue(sh *shard) bool {
	return sh.walBacklog.Load() >= uint64(st.cfg.Durable.CheckpointEvery) &&
		sh.walBacklogBytes.Load() >= sh.be.Stats().CheckpointBytes
}

// engineCheckpoint asks the engine to make everything through lsn
// durable and records the attempt: its time, its bytes, its outcome.
func (st *Store) engineCheckpoint(sh *shard, lsn uint64) error {
	start := time.Now()
	err := sh.be.Checkpoint(lsn)
	var n int64
	if err == nil {
		n = sh.be.Stats().CheckpointBytes
	}
	st.cfg.Metrics.Checkpoint(n, time.Since(start), err)
	return err
}

// checkpoint asks the engine to make everything through the current
// LSN durable, rotates the WAL to a fresh segment, and prunes the
// segments the checkpoint covers. Failures leave the current segment
// in place — the shard keeps serving and retries once the next batch
// lands.
func (st *Store) checkpoint(sh *shard) {
	if err := st.engineCheckpoint(sh, sh.lsn); err != nil {
		sh.setDurErr(err)
		return
	}
	sh.clearBacklog()
	if st.rotateWAL(sh) {
		d := st.cfg.Durable
		pruneWAL(d.FS, shardDirName(sh.idx), sh.lsn, sh.lsn+1, d.WALRetain)
	}
}

// rotateWAL closes the shard's WAL segment and opens a fresh one at
// the next LSN, reporting whether it did. If the new segment cannot be
// created the old one keeps growing; the next batch retries.
func (st *Store) rotateWAL(sh *shard) bool {
	d := st.cfg.Durable
	w, err := newWALWriter(d.FS, path.Join(shardDirName(sh.idx), walSegName(sh.lsn+1)), d.Fsync, st.cfg.Metrics)
	if err != nil {
		st.cfg.Metrics.Add(obs.CheckpointErrors, 1)
		sh.setDurErr(err)
		return false
	}
	if err := sh.wal.close(); err != nil {
		sh.setDurErr(err)
	}
	sh.wal = w
	return true
}

// enqueue submits a mutation to a shard with backpressure, stamping
// the enqueue time of traced mutations.
func (st *Store) enqueue(sh *shard, m mutation) error {
	if m.sp != nil {
		m.enq = obs.Nanotime()
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.closed {
		return ErrClosed
	}
	select {
	case sh.ops <- m:
		return nil
	default:
		return ErrOverloaded
	}
}

// Put inserts or overwrites one pair. It returns once the write is
// published (visible to every subsequent read), or ErrOverloaded if
// the shard's queue is full.
func (st *Store) Put(k core.Key, tid core.TID) error {
	w := st.getWaiter()
	w.pair[0] = core.Pair{Key: k, TID: tid}
	return st.await(st.submit(w, w.pair[:], nil, nil))
}

// Delete removes one key (a no-op if absent), with Put's semantics.
func (st *Store) Delete(k core.Key) error {
	w := st.getWaiter()
	w.key[0] = k
	return st.await(st.submit(w, nil, w.key[:], nil))
}

// PutBatch applies all pairs as one atomic unit per shard: pairs that
// land in the same shard appear in the same published snapshot, so a
// same-shard MGet sees either none or all of them. A full shard queue
// fails it with ErrOverloaded when no shard took its part, and with
// ErrPartialWrite when some did.
func (st *Store) PutBatch(pairs []core.Pair) error {
	return st.await(st.submit(nil, pairs, nil, nil))
}

// writable rejects client mutations on a store that must not extend
// its own WAL timeline: a replica (writes belong on the primary) or a
// fenced ex-primary. The same fence is re-checked inside applyBatch —
// this is only the fast fail.
func (st *Store) writable() error {
	if st.replica.Load() {
		return ErrNotPrimary
	}
	if st.Fenced() {
		return ErrFenced
	}
	return nil
}

// waiter is what a write within one shard waits on: the completion
// channel and the one-element slices Put and Delete hand in, reused
// together so neither allocates. The shard writer is done with the
// slices before it sends on the channel.
type waiter struct {
	done chan result
	pair [1]core.Pair
	key  [1]core.Key
}

// getWaiter takes a waiter from the store's free list, or makes one.
// The list is a channel rather than a sync.Pool so that a waiter handed
// back is the next one taken, whatever the garbage collector or the
// race detector did in between; it holds eight connections' full
// bursts of writes.
func (st *Store) getWaiter() *waiter {
	select {
	case w := <-st.waiters:
		return w
	default:
		return &waiter{done: make(chan result, 1)}
	}
}

// putWaiter hands a waiter back, dropping it when the list is full.
func (st *Store) putWaiter(w *waiter) {
	select {
	case st.waiters <- w:
	default:
	}
}

// pending is a write its shard writers hold: the waiter of a write
// within one shard, or one channel per shard of a wider one (nil where
// the shard got no work). err is what stopped the submission; nothing
// past it was enqueued.
type pending struct {
	w     *waiter
	shard int
	dones []chan result
	err   error
}

// submit enqueues one request's puts and deletes as one mutation per
// shard they fall in (atomic per shard, as PutBatch), with an optional
// lifecycle span for the shard writers to stamp, and returns without
// waiting. A write within one shard waits on w (nil takes one from the
// free list); a wider one fans out. await collects the outcome.
func (st *Store) submit(w *waiter, puts []core.Pair, dels []core.Key, sp *obs.Span) pending {
	if err := st.writable(); err != nil {
		return pending{w: w, err: err}
	}
	home := -1
	for _, p := range puts {
		home = st.sameShard(home, p.Key)
	}
	for _, k := range dels {
		home = st.sameShard(home, k)
	}
	if home < 0 {
		ms := make([]mutation, len(st.shards))
		for _, p := range puts {
			m := &ms[st.ShardOf(p.Key)]
			m.puts = append(m.puts, p)
		}
		for _, k := range dels {
			m := &ms[st.ShardOf(k)]
			m.dels = append(m.dels, k)
		}
		return st.fanOut(ms, sp)
	}
	if w == nil {
		w = st.getWaiter()
	}
	sh := st.shards[home]
	if err := st.enqueue(sh, mutation{puts: puts, dels: dels, done: w.done, sp: sp}); err != nil {
		return pending{w: w, err: err}
	}
	sh.puts.Add(uint64(len(puts)))
	sh.dels.Add(uint64(len(dels)))
	return pending{w: w, shard: home}
}

// sameShard folds k into a request's home shard: -1 before the first
// key, the shard every key so far falls in, or -2 once they differ.
func (st *Store) sameShard(home int, k core.Key) int {
	if s := st.ShardOf(k); home == -1 || home == s {
		return s
	}
	return -2
}

// fanOut enqueues ms[s] to shard s wherever it holds work. A
// multi-shard request's span is stamped by several writers
// concurrently (Span.Add is atomic); await's receives order the stamps
// before the caller reads it.
func (st *Store) fanOut(ms []mutation, sp *obs.Span) pending {
	p := pending{dones: make([]chan result, len(ms))}
	enqueued := false
	for s, m := range ms {
		if len(m.puts) == 0 && len(m.dels) == 0 && !m.compact {
			continue
		}
		sh := st.shards[s]
		m.done, m.sp = make(chan result, 1), sp
		if p.err = st.enqueue(sh, m); p.err != nil {
			if enqueued && errors.Is(p.err, ErrOverloaded) {
				p.err = ErrPartialWrite // the parts already enqueued apply
			}
			break // abandon the rest
		}
		enqueued = true
		sh.puts.Add(uint64(len(m.puts)))
		sh.dels.Add(uint64(len(m.dels)))
		p.dones[s] = m.done
	}
	return p
}

// await waits for every shard writer a submitted write reached and,
// past the first failure only draining, for the follower (replicated):
// the caller, not the shard writer, waits for replication. A
// one-shard write's waiter goes back to the free list.
func (st *Store) await(p pending) error {
	if p.dones == nil {
		if p.w == nil { // refused before it took a waiter
			return p.err
		}
		defer st.putWaiter(p.w)
		if p.err != nil {
			return p.err
		}
		return st.replicated(p.shard, <-p.w.done)
	}
	first := p.err
	for s, d := range p.dones {
		if d == nil {
			continue
		}
		if r := <-d; first == nil {
			first = st.replicated(s, r)
		}
	}
	return first
}

// replicated finishes a write the shard writer has answered: on a
// synchronously replicating primary it waits in the commit gate until
// a follower has applied the write's LSN. The write is in the local
// WAL and published either way — a gate failure means "not acked",
// the same contract as a crash between commit and ack. Whether to wait
// is read from the configuration, never from writer-owned state.
func (st *Store) replicated(shard int, r result) error {
	if r.err != nil || st.cfg.Durable == nil {
		return r.err
	}
	if gp := st.gate.Load(); gp != nil {
		return (*gp)(shard, r.lsn)
	}
	return nil
}

// Compact asks every shard to restore its engine's read-side layout —
// a pB+-Tree rebuild at the configured fill factor, or an LSM fold of
// all runs into one. It returns once every shard has published the
// compacted snapshot.
func (st *Store) Compact() error {
	if err := st.writable(); err != nil {
		return err
	}
	ms := make([]mutation, len(st.shards))
	for i := range ms {
		ms[i].compact = true
	}
	return st.await(st.fanOut(ms, nil))
}

// Get looks up one key against the owning shard's current snapshot.
// On a durable store it blocks until the shard has recovered.
func (st *Store) Get(k core.Key) (core.TID, bool) {
	sh := st.shards[st.ShardOf(k)]
	sh.waitReady()
	s := sh.be.Snapshot()
	tid, ok := s.Get(k)
	s.Release()
	return tid, ok
}

// MGet looks up a batch of keys: the keys are grouped by shard and
// each group runs as one batched lookup against a single snapshot of
// its shard (snapshot-consistent per shard; on the pbtree backend the
// group is a software-pipelined group search). Results line up with
// keys; out must be at least len(keys) long. A batch of up to 64 keys
// allocates nothing.
func (st *Store) MGet(keys []core.Key, out []Lookup) {
	sc := mgetPool.Get().(*mgetScratch)
	st.mget(keys, out, sc)
	if len(keys) <= 64 { // a pooled scratch stays small
		mgetPool.Put(sc)
	}
}

var mgetPool = sync.Pool{New: func() any { return new(mgetScratch) }}

// mgetScratch is the working memory of one mget pass. A caller on a
// hot path (the server's read bursts) keeps one and reuses it, so a
// pass allocates nothing once the slices have grown to its batch size.
type mgetScratch struct {
	shard []int32    // owning shard of keys[i]
	next  []int      // per shard: where its next key lands in keys/idx
	keys  []core.Key // the batch permuted shard-major
	idx   []int32    // idx[j] is the position in the caller's batch of keys[j]
	tids  []core.TID
	found []bool
}

// grow returns s resliced to n elements, reallocating only when the
// capacity is short. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// mget is MGet over caller-owned scratch. A batch that lands on one
// shard (always, on a one-shard store) is searched in place; a mixed
// batch is partitioned shard-major with a counting sort.
func (st *Store) mget(keys []core.Key, out []Lookup, sc *mgetScratch) {
	if len(out) < len(keys) {
		panic("serve: MGet result slice shorter than keys")
	}
	n := len(keys)
	if n == 0 {
		return
	}
	sc.tids, sc.found = grow(sc.tids, n), grow(sc.found, n)
	sc.shard, sc.next = grow(sc.shard, n), grow(sc.next, len(st.shards)+1)
	clear(sc.next)
	for i, k := range keys {
		s := st.ShardOf(k)
		sc.shard[i] = int32(s)
		sc.next[s+1]++
	}
	if first := int(sc.shard[0]); sc.next[first+1] == n {
		st.shards[first].getBatch(keys, sc.tids, sc.found)
		for i := range keys {
			out[i] = Lookup{TID: sc.tids[i], Found: sc.found[i]}
		}
		return
	}
	// next[s+1] holds shard s's count; a prefix sum turns next[s] into
	// the start of its group, and placing its keys advances next[s] to
	// the group's end, which is where shard s+1 starts.
	for s := 1; s < len(sc.next); s++ {
		sc.next[s] += sc.next[s-1]
	}
	sc.keys, sc.idx = grow(sc.keys, n), grow(sc.idx, n)
	for i, k := range keys {
		j := sc.next[sc.shard[i]]
		sc.next[sc.shard[i]]++
		sc.keys[j], sc.idx[j] = k, int32(i)
	}
	lo := 0
	for s, sh := range st.shards {
		hi := sc.next[s]
		if hi > lo {
			sh.getBatch(sc.keys[lo:hi], sc.tids[lo:hi], sc.found[lo:hi])
		}
		lo = hi
	}
	for j, i := range sc.idx {
		out[i] = Lookup{TID: sc.tids[j], Found: sc.found[j]}
	}
}

// getBatch looks keys up against one snapshot of the shard.
func (sh *shard) getBatch(keys []core.Key, tids []core.TID, found []bool) {
	sh.waitReady()
	s := sh.be.Snapshot()
	if len(keys) == 1 {
		tids[0], found[0] = s.Get(keys[0])
	} else {
		s.GetBatch(keys, tids, found)
	}
	s.Release()
}

// ShardStats is a point-in-time view of one shard.
type ShardStats struct {
	Backend    string `json:"backend"`               // storage engine name
	Version    uint64 `json:"version"`               // snapshot version last published
	Count      int    `json:"count"`                 // keys in the published snapshot
	QueueDepth int    `json:"queue_depth"`           // mutations waiting for the shard writer
	Puts       uint64 `json:"puts"`                  // puts applied since start
	Deletes    uint64 `json:"deletes"`               // deletes applied since start
	Published  uint64 `json:"published"`             // snapshot publications since start
	Height     int    `json:"height"`                // tree height of the published snapshot (pbtree)
	Blocks     int    `json:"blocks,omitempty"`      // node blocks in the tree's arena, free and retired included (pbtree)
	Copied     uint64 `json:"copied,omitempty"`      // blocks copied to keep published versions intact, since start (pbtree)
	Retired    int    `json:"retired,omitempty"`     // replaced blocks waiting for a reader of an older version (pbtree)
	Runs       int    `json:"runs,omitempty"`        // immutable sorted runs (lsm)
	MemKeys    int    `json:"mem_keys,omitempty"`    // memtable entries, tombstones included (lsm)
	DurableErr string `json:"durable_err,omitempty"` // last WAL/checkpoint/recovery error
}

// StoreStats aggregates the shard views.
type StoreStats struct {
	Shards []ShardStats `json:"shards"` // one entry per shard, in shard order
	Count  int          `json:"count"`  // total keys across shards
}

// Stats snapshots every shard's version, size and queue depth,
// blocking until recovering shards come up.
func (st *Store) Stats() StoreStats {
	out := StoreStats{Shards: make([]ShardStats, len(st.shards))}
	for i, sh := range st.shards {
		sh.waitReady()
		bs := sh.be.Stats()
		out.Shards[i] = ShardStats{
			Backend:    bs.Backend,
			Version:    bs.Version,
			Count:      bs.Count,
			QueueDepth: len(sh.ops),
			Puts:       sh.puts.Load(),
			Deletes:    sh.dels.Load(),
			Published:  sh.published.Load(),
			Height:     bs.Height,
			Blocks:     bs.Blocks,
			Copied:     bs.Copied,
			Retired:    bs.Retired,
			Runs:       bs.Runs,
			MemKeys:    bs.MemKeys,
		}
		if e := sh.durErr.Load(); e != nil {
			out.Shards[i].DurableErr = *e
		}
		out.Count += bs.Count
	}
	return out
}

// Ready reports, without blocking, whether every shard has published
// its first snapshot (for a durable store: finished recovering). The
// admin plane's /healthz uses it to answer 503 during recovery.
func (st *Store) Ready() bool {
	for _, sh := range st.shards {
		if !sh.isReady.Load() {
			return false
		}
	}
	return true
}

// WriteMetrics writes the per-shard gauges in the Prometheus text
// exposition format: readiness, mutation-queue depth, snapshot age,
// WAL backlog since the last checkpoint, key count and (lsm) run
// count. It never blocks on a recovering shard — engine statistics
// are skipped until the shard is up, so /metrics stays responsive
// during recovery.
func (st *Store) WriteMetrics(w io.Writer) error {
	type gauge struct {
		name, help string
		value      func(sh *shard, ready bool) (float64, bool)
	}
	now := obs.Nanotime()
	gauges := []gauge{
		{"pbtree_shard_ready", "Whether the shard has published its first snapshot (0 during recovery).", func(sh *shard, ready bool) (float64, bool) {
			if ready {
				return 1, true
			}
			return 0, true
		}},
		{"pbtree_shard_queue_depth", "Mutations waiting in the shard's queue.", func(sh *shard, ready bool) (float64, bool) {
			return float64(len(sh.ops)), true
		}},
		{"pbtree_shard_snapshot_age_seconds", "Seconds since the shard last published a snapshot.", func(sh *shard, ready bool) (float64, bool) {
			if !ready {
				return 0, false
			}
			return float64(now-sh.lastPub.Load()) / 1e9, true
		}},
		{"pbtree_shard_wal_backlog_records", "WAL records committed since the shard's last checkpoint.", func(sh *shard, ready bool) (float64, bool) {
			return float64(sh.walBacklog.Load()), true
		}},
		{"pbtree_shard_wal_backlog_bytes", "WAL bytes committed since the shard's last checkpoint; a pbtree shard checkpoints once they reach the size of its last checkpoint.", func(sh *shard, ready bool) (float64, bool) {
			return float64(sh.walBacklogBytes.Load()), true
		}},
		{"pbtree_shard_keys", "Keys in the shard's published snapshot.", func(sh *shard, ready bool) (float64, bool) {
			if !ready {
				return 0, false
			}
			return float64(sh.be.Stats().Count), true
		}},
		{"pbtree_shard_oldest_pin_seconds", "Seconds the oldest superseded tree version a reader still holds has been held, delaying the reuse of its blocks; 0 when none is (always, on the lsm engine).", func(sh *shard, ready bool) (float64, bool) {
			if !ready {
				return 0, false
			}
			since := sh.be.Stats().PinnedSince
			if since == 0 {
				return 0, true
			}
			return float64(time.Now().UnixNano()-since) / 1e9, true
		}},
	}
	if st.cfg.Backend == BackendLSM {
		gauges = append(gauges, gauge{"pbtree_shard_runs", "Immutable sorted runs in the shard's LSM engine.", func(sh *shard, ready bool) (float64, bool) {
			if !ready {
				return 0, false
			}
			return float64(sh.be.Stats().Runs), true
		}})
	}
	for _, g := range gauges {
		var samples []obs.Sample
		for i, sh := range st.shards {
			if v, ok := g.value(sh, sh.isReady.Load()); ok {
				samples = append(samples, obs.Sample{Labels: fmt.Sprintf("shard=\"%d\"", i), Value: v})
			}
		}
		if err := obs.WriteFamily(w, g.name, g.help, "gauge", samples...); err != nil {
			return err
		}
	}
	return nil
}

// Len reports the total number of pairs across all shards.
func (st *Store) Len() int {
	n := 0
	for _, sh := range st.shards {
		sh.waitReady()
		s := sh.be.Snapshot()
		n += s.Count()
		s.Release()
	}
	return n
}

// Close drains every shard's queue (pending writes are applied and
// acked) and stops the writers. Reads remain valid on the final
// snapshots; writes fail with ErrClosed.
func (st *Store) Close() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	for _, sh := range st.shards {
		close(sh.ops)
	}
	st.mu.Unlock()
	for _, sh := range st.shards {
		<-sh.drained
	}
}
