package serve

// Replication hooks on the Store — the storage-side half of the
// log-shipping subsystem in internal/repl (which owns the protocol
// loops; DESIGN.md §13).
//
// Roles. A Store opened with StoreConfig.Replica is a follower: client
// writes are rejected with ErrNotPrimary and the shards mutate only
// through ReplicaApply (shipped WAL frames, persisted verbatim so the
// follower's WAL timeline is byte-identical to the primary's) and
// ReplicaInstall (a shipped checkpoint, for followers too far behind
// the primary's retained WAL). Promote turns a follower into a
// primary under a new, higher epoch.
//
// Fencing. The epoch is a monotone token persisted in the MANIFEST
// before it takes effect. A store that observes a higher rival epoch
// (Fence) refuses every subsequent WAL append — the check sits in
// applyBatch, in front of the group commit, so a deposed primary
// cannot acknowledge a write after its successor was promoted.
//
// Cursors. A shard's replication cursor is its durably committed LSN
// (shard.applied), maintained lock-free so STATUS probes and lag
// gauges never touch the writer. WALTail serves the primary's side of
// a cursor resume straight from its WAL segment files; when the
// cursor has been pruned past, it reports WALRetiredError and the
// caller falls back to checkpoint shipping (SnapshotShard).

import (
	"bytes"
	"errors"
	"fmt"
	"path"

	"pbtree/internal/backend"
	"pbtree/internal/core"
	"pbtree/internal/obs"
)

// ErrNotPrimary is returned for client writes on a replica store:
// writes belong on the primary.
var ErrNotPrimary = errors.New("serve: store is a replica (writes go to the primary)")

// ErrNotReplica is returned for replication applies on a store that is
// not (or no longer) a follower.
var ErrNotReplica = errors.New("serve: store is not a replica")

// ErrFenced is returned for writes on a store that has observed a
// higher replication epoch: a successor primary exists, and extending
// this WAL timeline would split the brain.
var ErrFenced = errors.New("serve: store is fenced by a higher replication epoch")

// StaleEpochError rejects a replication message whose epoch does not
// match the store's: lower means a deposed sender, higher means the
// receiver must adopt the new epoch (or, on a primary, fence itself)
// before any data moves.
type StaleEpochError struct {
	Have uint64 // the store's epoch
	Got  uint64 // the message's epoch
}

// Error implements error.
func (e StaleEpochError) Error() string {
	return fmt.Sprintf("serve: replication epoch %d does not match store epoch %d", e.Got, e.Have)
}

// CursorGapError rejects replicated frames that do not start exactly
// after the shard's last LSN: the follower must resume from Want.
type CursorGapError struct {
	Want uint64 // the first LSN the shard can accept
}

// Error implements error.
func (e CursorGapError) Error() string {
	return fmt.Sprintf("serve: replicated frames must start at LSN %d", e.Want)
}

// WALRetiredError reports that a follower's cursor points below the
// primary's retained WAL: the log from there is gone, and the
// follower must fall back to checkpoint shipping.
type WALRetiredError struct {
	Floor uint64 // the lowest LSN still servable from the WAL
}

// Error implements error.
func (e WALRetiredError) Error() string {
	return fmt.Sprintf("serve: WAL retired below LSN %d; resync from a checkpoint", e.Floor)
}

// replApply is the special mutation carrying shipped WAL frames to a
// follower shard (ReplicaApply).
type replApply struct {
	epoch  uint64 // sender's epoch; must match the store's exactly
	from   uint64 // LSN of the first record in frames
	frames []byte // raw WAL-framed records, contiguous from `from`
}

// replInstall is the special mutation installing a shipped checkpoint
// on a follower shard (ReplicaInstall).
type replInstall struct {
	epoch   uint64 // sender's epoch; must match the store's exactly
	snapLSN uint64 // the LSN the checkpoint covers
	data    []byte // core tree stream (the ckpt-*.pbt format)
}

// isSpecial reports whether the mutation is a replication operation
// that must run alone in the shard writer, outside group commit.
func (m *mutation) isSpecial() bool {
	return m.repl != nil || m.install != nil
}

// applySpecial runs one replication mutation in the shard writer.
func (st *Store) applySpecial(sh *shard, m mutation) {
	var err error
	if m.repl != nil {
		err = st.replicaApply(sh, m.repl)
	} else {
		err = st.replicaInstall(sh, m.install)
	}
	if m.done != nil {
		m.done <- result{err: err}
	}
}

// checkReplEpoch validates a replication message's epoch against the
// store's. Exact match is required: the follower adopts the primary's
// epoch (AdoptEpoch) before any data moves, so a mismatch here is
// always a deposed or not-yet-adopted sender.
func (st *Store) checkReplEpoch(epoch uint64) error {
	if have := st.epoch.Load(); epoch != have {
		return StaleEpochError{Have: have, Got: epoch}
	}
	return nil
}

// replicaApply persists shipped WAL frames verbatim and applies their
// records through the engine, in the shard writer. The frames were
// already framed (length, CRC) by the primary's WAL writer; the
// follower re-verifies every frame and the LSN contiguity before a
// byte lands in its own log, so the two WAL timelines stay
// byte-identical for the same LSN range.
func (st *Store) replicaApply(sh *shard, r *replApply) error {
	if !st.replica.Load() {
		return ErrNotReplica
	}
	if err := st.checkReplEpoch(r.epoch); err != nil {
		return err
	}
	if sh.walErr != nil {
		return sh.walErr
	}
	if r.from != sh.lsn+1 {
		return CursorGapError{Want: sh.lsn + 1}
	}
	ws, nrec, err := decodeReplFrames(r.frames, r.from)
	if err != nil {
		return err
	}
	if nrec == 0 {
		return nil
	}
	sh.wal.addRaw(r.frames, nrec)
	if err := sh.wal.commit(); err != nil {
		// Same fail-stop as a local append: the log tail is no longer
		// trustworthy, so accepting more records would acknowledge a
		// cursor position that cannot be recovered.
		sh.walErr = fmt.Errorf("serve: shard %d replicated WAL append: %w", sh.idx, err)
		sh.setDurErr(err)
		return sh.walErr
	}
	sh.wal.takeSyncNS()
	sh.lsn += nrec
	sh.noteCommit(nrec, len(r.frames))
	for _, w := range ws {
		sh.puts.Add(uint64(len(w.Puts)))
		sh.dels.Add(uint64(len(w.Dels)))
	}
	sh.version++
	var ackErr error
	if err := sh.be.ApplyBatch(ws, sh.version, sh.lsn, func(e error) {
		ackErr = e
		sh.published.Add(1)
		sh.lastPub.Store(obs.Nanotime())
	}); err != nil {
		sh.setDurErr(err)
	}
	// The cursor moves once the records are readable here, not at the
	// WAL commit: an ack or a STATUS answer never counts a record a
	// read on this follower cannot see yet.
	sh.applied.Store(sh.lsn)
	st.housekeepWAL(sh)
	return ackErr
}

// decodeReplFrames verifies shipped WAL frames — framing, CRC, and
// LSN contiguity from `from` — and decodes them into engine writes.
func decodeReplFrames(frames []byte, from uint64) ([]backend.Write, uint64, error) {
	var ws []backend.Write
	var n uint64
	for off := 0; off < len(frames); {
		rec, sz, err := decodeWALRecord(frames[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("serve: replicated frames: %w", err)
		}
		if rec.lsn != from+n {
			return nil, 0, fmt.Errorf("serve: replicated frames: LSN %d breaks sequence at %d", rec.lsn, from+n)
		}
		ws = append(ws, backend.Write{Puts: rec.puts, Dels: rec.dels})
		n++
		off += sz
	}
	return ws, n, nil
}

// replicaInstall replaces a follower shard's contents with a shipped
// checkpoint covering snapLSN and resets the shard's WAL timeline to
// continue from there. The replacement runs through the engine's
// normal apply path (delete everything, put the checkpoint, compact),
// so it is engine-agnostic and racefree against concurrent readers;
// then the engine checkpoints at snapLSN and the WAL restarts at
// snapLSN+1. A crash between those two steps recovers the old state
// and simply re-syncs — a follower's durability story is always
// "catch up from the primary again".
func (st *Store) replicaInstall(sh *shard, r *replInstall) error {
	if !st.replica.Load() {
		return ErrNotReplica
	}
	if err := st.checkReplEpoch(r.epoch); err != nil {
		return err
	}
	if r.snapLSN < sh.lsn {
		return nil // already past it; duplicate or reordered install
	}
	// Equality still installs: a seeded primary with no writes yet
	// snapshots at LSN 0, which a fresh follower (also at 0) needs.
	pairs, err := core.ReadPairs(bytes.NewReader(r.data))
	if err != nil {
		return fmt.Errorf("serve: shard %d checkpoint stream: %w", sh.idx, err)
	}

	// Delete-all + put-all + compact, as one publication. The deletes
	// run in their own Write so they cannot shadow the incoming pairs.
	s := sh.be.Snapshot()
	cur := s.AppendPairs(make([]core.Pair, 0, s.Count()))
	s.Release()
	dels := make([]core.Key, len(cur))
	for i, p := range cur {
		dels[i] = p.Key
	}
	sh.version++
	var ackErr error
	if err := sh.be.ApplyBatch([]backend.Write{
		{Dels: dels},
		{Puts: pairs, Compact: true},
	}, sh.version, r.snapLSN, func(e error) {
		ackErr = e
		sh.published.Add(1)
		sh.lastPub.Store(obs.Nanotime())
	}); err != nil {
		sh.setDurErr(err)
	}
	if ackErr != nil {
		return ackErr
	}
	if err := st.engineCheckpoint(sh, r.snapLSN); err != nil {
		sh.setDurErr(err)
		return err
	}

	// The old WAL timeline (records ≤ the old sh.lsn < snapLSN) is
	// superseded by the new engine checkpoint; recovery would skip its
	// records anyway. Restart the log at snapLSN+1.
	d := st.cfg.Durable
	dir := shardDirName(sh.idx)
	w, err := newWALWriter(d.FS, path.Join(dir, walSegName(r.snapLSN+1)), d.Fsync, st.cfg.Metrics)
	if err != nil {
		sh.setDurErr(err)
		return err
	}
	if sh.wal != nil {
		if err := sh.wal.close(); err != nil && sh.walErr == nil {
			sh.setDurErr(err)
		}
	}
	sh.wal, sh.walErr = w, nil // a fresh segment heals a fail-stopped log
	sh.lsn = r.snapLSN
	sh.applied.Store(sh.lsn)
	sh.clearBacklog()
	pruneWAL(d.FS, dir, r.snapLSN, r.snapLSN+1, 0)
	return nil
}

// ReplicaApply ships WAL frames into a follower shard: the frames are
// verified (framing, CRC, LSN contiguity from `from`), persisted
// verbatim to the follower's own WAL, and applied through the engine
// as one publication. It returns CursorGapError when `from` is not
// exactly the shard's next LSN, StaleEpochError on an epoch mismatch,
// and ErrNotReplica after promotion.
func (st *Store) ReplicaApply(shard int, epoch, from uint64, frames []byte) error {
	if !st.replica.Load() {
		return ErrNotReplica
	}
	sh := st.shards[shard]
	if err := sh.waitReady(); err != nil {
		return err
	}
	done := make(chan result, 1)
	if err := st.enqueue(sh, mutation{repl: &replApply{epoch: epoch, from: from, frames: frames}, done: done}); err != nil {
		return err
	}
	return (<-done).err
}

// ReplicaInstall replaces a follower shard's contents with a shipped
// checkpoint stream covering snapLSN (see SnapshotShard) and restarts
// its WAL timeline at snapLSN+1. Installing a checkpoint the shard
// already covers is a no-op.
func (st *Store) ReplicaInstall(shard int, epoch, snapLSN uint64, data []byte) error {
	if !st.replica.Load() {
		return ErrNotReplica
	}
	sh := st.shards[shard]
	if err := sh.waitReady(); err != nil {
		return err
	}
	done := make(chan result, 1)
	if err := st.enqueue(sh, mutation{install: &replInstall{epoch: epoch, snapLSN: snapLSN, data: data}, done: done}); err != nil {
		return err
	}
	return (<-done).err
}

// SnapshotShard produces an LSN-consistent checkpoint stream of one
// shard in the core tree stream format (the ckpt-*.pbt format), for
// shipping to a follower whose cursor fell below the retained WAL. It
// pins the published version and encodes it on the caller's
// goroutine, beside the shard writer: the stream covers exactly the
// records 1..lsn that version covers.
func (st *Store) SnapshotShard(shard int) (lsn uint64, data []byte, err error) {
	sh := st.shards[shard]
	if err := sh.waitReady(); err != nil {
		return 0, nil, err
	}
	s := sh.be.Snapshot()
	pairs := s.AppendPairs(make([]core.Pair, 0, s.Count()))
	lsn = s.LSN()
	s.Release()
	data, err = core.EncodePairs(st.cfg.Tree, pairs)
	return lsn, data, err
}

// WALTail reads raw WAL frames for one shard's records with LSN in
// (after, after+n], up to roughly maxBytes (at least one record when
// any is available), straight from the shard's WAL segment files. It
// returns the frames and the record count; an empty result means the
// follower is caught up. When `after` has been pruned past, it
// returns WALRetiredError and the caller falls back to checkpoint
// shipping. Safe for any goroutine: segments are append-only and
// every frame re-verifies before shipping, so a torn tail (a group
// commit racing this read) simply ends the batch early.
func (st *Store) WALTail(shard int, after uint64, maxBytes int) ([]byte, uint64, error) {
	d := st.cfg.Durable
	if d == nil {
		return nil, 0, errors.New("serve: WAL shipping needs a durable store")
	}
	sh := st.shards[shard]
	if err := sh.waitReady(); err != nil {
		return nil, 0, err
	}
	if after == 0 && !sh.lsn0Empty {
		// The timeline starts from a non-empty (or unknown) LSN-0
		// state — a bootstrap seed, or a prior incarnation's
		// checkpoint — which no WAL record covers. A cursor at 0 must
		// take the checkpoint path.
		return nil, 0, WALRetiredError{Floor: 1}
	}
	if after >= sh.applied.Load() {
		return nil, 0, nil
	}
	dir := shardDirName(shard)
	segs, err := listWALSegs(d.FS, dir)
	if err != nil {
		return nil, 0, err
	}
	if len(segs) == 0 || after+1 < segs[0] {
		floor := sh.applied.Load() + 1
		if len(segs) > 0 {
			floor = segs[0]
		}
		return nil, 0, WALRetiredError{Floor: floor}
	}
	// Start at the newest segment whose first record is ≤ after+1 and
	// walk forward; segment starts are the contained records' floor.
	first := 0
	for i, seg := range segs {
		if seg <= after+1 {
			first = i
		}
	}
	var out []byte
	var n uint64
	next := after + 1
	for _, seg := range segs[first:] {
		if seg > next {
			// A gap between retained segments (an interrupted rotation
			// pruned unevenly): nothing past it is contiguous.
			break
		}
		blob, err := readWALSeg(d.FS, path.Join(dir, walSegName(seg)))
		if err != nil {
			return nil, 0, err
		}
		for off := 0; off < len(blob); {
			rec, sz, derr := decodeWALRecord(blob[off:])
			if derr != nil {
				// Torn tail: a group commit is mid-write (or the segment
				// really is torn — recovery's problem, not shipping's).
				return out, n, nil
			}
			if rec.lsn >= next {
				if rec.lsn != next {
					return out, n, nil // stale tail past a rotation
				}
				if len(out) > 0 && len(out)+sz > maxBytes {
					return out, n, nil
				}
				out = append(out, blob[off:off+sz]...)
				n++
				next++
			}
			off += sz
		}
	}
	return out, n, nil
}

// ReplicaCursor reports one shard's replication cursor: its durably
// committed LSN (on a follower, durable and readable). Lock-free.
func (st *Store) ReplicaCursor(shard int) uint64 {
	return st.shards[shard].applied.Load()
}

// AppliedLSNs reports every shard's replication cursor. Lock-free.
func (st *Store) AppliedLSNs() []uint64 {
	out := make([]uint64, len(st.shards))
	for i, sh := range st.shards {
		out[i] = sh.applied.Load()
	}
	return out
}

// Epoch reports the store's replication epoch (1 when replication has
// never been configured).
func (st *Store) Epoch() uint64 { return st.epoch.Load() }

// IsReplica reports whether the store is currently a follower.
func (st *Store) IsReplica() bool { return st.replica.Load() }

// Fenced reports whether the store has observed a higher rival epoch
// and therefore refuses every write.
func (st *Store) Fenced() bool { return st.fencedBy.Load() > st.epoch.Load() }

// FencedBy reports the highest rival epoch observed (0 when none).
func (st *Store) FencedBy() uint64 { return st.fencedBy.Load() }

// Fence records a rival epoch. If it exceeds the store's own epoch the
// store is fenced: every subsequent WAL append (and so every write
// acknowledgement) fails with ErrFenced. Fencing is sticky and
// monotone; it is how a deposed primary learns of its successor.
func (st *Store) Fence(epoch uint64) {
	for {
		cur := st.fencedBy.Load()
		if epoch <= cur || st.fencedBy.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// Promote turns a follower into a primary under newEpoch, which must
// exceed the store's current epoch. The new epoch is persisted in the
// MANIFEST before it takes effect, so a crash mid-promotion restarts
// either as the old follower or as the new primary — never as an
// unfenced twin of the old one.
func (st *Store) Promote(newEpoch uint64) error {
	st.manMu.Lock()
	defer st.manMu.Unlock()
	if !st.replica.Load() {
		return ErrNotReplica
	}
	if cur := st.epoch.Load(); newEpoch <= cur {
		return fmt.Errorf("serve: promotion epoch %d must exceed current epoch %d", newEpoch, cur)
	}
	if err := st.persistEpoch(newEpoch); err != nil {
		return err
	}
	st.epoch.Store(newEpoch)
	st.replica.Store(false)
	return nil
}

// AdoptEpoch raises a follower's epoch to match its primary's
// (persisting it first). Adopting the current epoch is a no-op; a
// lower epoch is rejected — the token never moves backwards.
func (st *Store) AdoptEpoch(epoch uint64) error {
	st.manMu.Lock()
	defer st.manMu.Unlock()
	if !st.replica.Load() {
		return ErrNotReplica
	}
	cur := st.epoch.Load()
	if epoch == cur {
		return nil
	}
	if epoch < cur {
		return StaleEpochError{Have: cur, Got: epoch}
	}
	if err := st.persistEpoch(epoch); err != nil {
		return err
	}
	st.epoch.Store(epoch)
	return nil
}

// persistEpoch rewrites the MANIFEST with the new epoch. Caller holds
// manMu.
func (st *Store) persistEpoch(epoch uint64) error {
	if st.cfg.Durable == nil {
		return errors.New("serve: a replication epoch needs a durable store (it is persisted in the MANIFEST)")
	}
	return writeManifest(st.cfg.Durable.FS, manifest{
		Format:  manifestFormat,
		Shards:  st.cfg.Shards,
		Backend: st.cfg.Backend,
		Epoch:   epoch,
	})
}

// SetCommitGate installs (or, with nil, removes) the synchronous-
// replication commit gate: a hook every durable write's caller calls
// once its shard writer has committed and published the write, with
// the shard index and the write's LSN, before the write is
// acknowledged. The shard writer never calls it. A non-nil return
// fails the acknowledgement — the write is in the local WAL and
// visible, but the client is told nothing, the same contract as a
// crash between commit and ack.
func (st *Store) SetCommitGate(gate func(shard int, lsn uint64) error) {
	if gate == nil {
		st.gate.Store(nil)
		return
	}
	st.gate.Store(&gate)
}
