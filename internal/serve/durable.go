package serve

// Durability: per-shard WAL (owned here) + engine checkpoints (owned
// by the storage engine — full-tree snapshots for pbtree, sorted runs
// for lsm). See DESIGN.md §9 and §11.
//
// Directory layout under the data dir:
//
//	MANIFEST                    store-level metadata (format, shards, backend)
//	shard-0042/
//	    wal-<lsn16x>.log        records starting at that LSN
//	    ckpt-<lsn16x>.pbt       pbtree: core.WriteTo snapshot of LSNs ≤ lsn
//	    run-<lsn16x>-<gen>.lrun lsm: sorted run (see package lsm)
//	    *.tmp                   in-flight artifact, removed on open
//
// Invariants:
//
//   - Shard LSNs are contiguous from 1; every acknowledged mutation
//     owns exactly one LSN.
//   - An engine artifact set covering LSN L contains exactly the
//     effects of records 1..L. Artifacts are written to a .tmp file,
//     synced, then renamed — so a readable artifact is always
//     complete.
//   - WAL segments older than the newest durable engine checkpoint
//     are deleted only after the engine reports it durable; recovery
//     therefore always finds artifacts ∪ WAL covering every durable
//     LSN.
//   - Recovery lets the engine reload its artifacts, then replays WAL
//     records L+1.. in LSN order, stops at the first torn/corrupt
//     record or LSN gap, truncates that tail and removes every segment
//     that starts past it.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path"
	"sort"
	"time"

	"pbtree/internal/backend"
)

// DurableConfig enables WAL + engine checkpoint persistence for a
// Store.
type DurableConfig struct {
	// Dir is the data directory. With the default OS filesystem it is
	// the on-disk root; with a custom FS it may be empty (paths are
	// already FS-relative).
	Dir string

	// FS overrides the filesystem (fault injection, tests). Nil
	// selects the OS filesystem rooted at Dir.
	FS FS

	// Fsync selects the WAL sync policy. The zero value is
	// FsyncAlways: acknowledged writes survive any crash.
	Fsync FsyncPolicy

	// CheckpointEvery is how many WAL records a shard writes to a
	// segment before it rotates to a fresh one, and the fewest it
	// accumulates before it asks its engine to checkpoint. The log
	// since the last checkpoint must also hold as many bytes as that
	// checkpoint wrote (a pbtree shard's image; nothing for lsm), so a
	// large shard checkpoints once per image's worth of log and
	// recovery replays at most about that much. Zero selects 4096.
	CheckpointEvery int

	// WALRetain keeps that many superseded WAL segments per shard
	// after a checkpoint instead of deleting them all. Retained
	// segments let a lagging replication follower catch up from the
	// log instead of falling back to checkpoint shipping; recovery
	// skips their already-covered records. Zero retains none (the
	// pre-replication behavior).
	WALRetain int
}

// withDefaults resolves and validates the configuration.
func (c DurableConfig) withDefaults() (DurableConfig, error) {
	if c.FS == nil {
		if c.Dir == "" {
			return c, errors.New("serve: durable store needs a data directory (or an explicit FS)")
		}
		c.FS = OSFS{Root: c.Dir}
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 4096
	}
	if c.CheckpointEvery < 1 {
		return c, fmt.Errorf("serve: checkpoint-every %d must be positive", c.CheckpointEvery)
	}
	if c.WALRetain < 0 {
		return c, fmt.Errorf("serve: wal-retain %d must not be negative", c.WALRetain)
	}
	if c.Fsync > FsyncNever {
		return c, fmt.Errorf("serve: unknown fsync policy %d", c.Fsync)
	}
	return c, nil
}

// RecoveryStats describes one shard's recovery-on-open.
type RecoveryStats struct {
	Shard         int           `json:"shard"`            // shard index
	CheckpointLSN uint64        `json:"checkpoint_lsn"`   // engine artifact coverage; 0 = none found
	LastLSN       uint64        `json:"last_lsn"`         // after replay
	Replayed      uint64        `json:"replayed_records"` // WAL records applied
	TornBytes     int64         `json:"torn_bytes"`       // truncated WAL tail
	Pairs         int           `json:"pairs"`            // keys live after recovery
	Duration      time.Duration `json:"duration_ns"`      // wall time of the recovery
	Bootstrapped  bool          `json:"bootstrapped"`     // fresh dir seeded from Open's pairs
}

// manifest is the store-level metadata file. Shard count and backend
// are part of the on-disk identity: the hash partitioning depends on
// the former, the artifact format on the latter. Epoch is the
// replication fencing token: it only ever grows (promotion,
// adoption), and it is persisted before the new epoch takes effect so
// a deposed primary can never restart believing it is current.
type manifest struct {
	Format  int    `json:"format"`
	Shards  int    `json:"shards"`
	Backend string `json:"backend,omitempty"`
	Epoch   uint64 `json:"epoch,omitempty"`
}

const (
	manifestName   = "MANIFEST"
	manifestFormat = 1
)

func shardDirName(i int) string    { return fmt.Sprintf("shard-%04d", i) }
func ckptName(lsn uint64) string   { return backend.CheckpointName(lsn) }
func walSegName(lsn uint64) string { return fmt.Sprintf("wal-%016x.log", lsn) }

// loadOrInitManifest validates an existing manifest (raising its epoch
// to at least epoch when needed) or writes a fresh one via the
// tmp+rename protocol. bk is the configured backend name; manifests
// from before the backend field default to pbtree, manifests from
// before the epoch field to epoch 1. It returns the effective epoch.
func loadOrInitManifest(fsys FS, shards int, bk string, epoch uint64) (uint64, error) {
	if epoch == 0 {
		epoch = 1
	}
	if f, err := fsys.Open(manifestName); err == nil {
		blob, rerr := io.ReadAll(io.LimitReader(f, 1<<16))
		f.Close()
		if rerr != nil {
			return 0, fmt.Errorf("serve: reading manifest: %w", rerr)
		}
		var m manifest
		if err := json.Unmarshal(blob, &m); err != nil {
			return 0, fmt.Errorf("serve: corrupt manifest: %w", err)
		}
		if m.Format != manifestFormat {
			return 0, fmt.Errorf("serve: manifest format %d, this binary speaks %d", m.Format, manifestFormat)
		}
		if m.Shards != shards {
			return 0, fmt.Errorf("serve: store was created with %d shards, reopened with %d (shard count is part of the on-disk layout)", m.Shards, shards)
		}
		mb := m.Backend
		if mb == "" {
			mb = BackendPBTree
		}
		if mb != bk {
			return 0, fmt.Errorf("serve: store was created with backend %q, reopened with %q (the artifact formats are incompatible)", mb, bk)
		}
		if m.Epoch == 0 {
			m.Epoch = 1
		}
		if epoch > m.Epoch {
			m.Epoch = epoch
			if err := writeManifest(fsys, m); err != nil {
				return 0, err
			}
		}
		return m.Epoch, nil
	}
	m := manifest{Format: manifestFormat, Shards: shards, Backend: bk, Epoch: epoch}
	if err := writeManifest(fsys, m); err != nil {
		return 0, err
	}
	return m.Epoch, nil
}

// writeManifest persists m via the tmp+fsync+rename protocol, so a
// crash mid-write leaves either the old manifest or the new one,
// never a torn file.
func writeManifest(fsys FS, m manifest) error {
	blob, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return backend.WriteAtomic(fsys, manifestName, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	})
}

// listWALSegs returns a shard directory's WAL segment start LSNs,
// ascending. Non-WAL names are left to the engine, *.tmp files too:
// WALTail lists from any goroutine, and a .tmp may be the checkpoint
// the shard writer is writing (the engine's Recover reclaims strays).
func listWALSegs(fsys FS, dir string) ([]uint64, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, n := range names {
		if lsn, ok := backend.ParseSeq(n, "wal-", ".log"); ok {
			segs = append(segs, lsn)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// replayWAL replays a shard's WAL tail through the engine's Replay
// hook, in LSN order, skipping records the engine's artifacts already
// cover (LSN ≤ stats.LastLSN on entry). It stops at the first
// torn/corrupt record or LSN gap — a stale segment surviving an
// interrupted rotation — truncates that tail and removes the segments
// past it, so the next open starts clean. stats is updated in place.
func replayWAL(fsys FS, dir string, segs []uint64, be backend.Backend, stats *RecoveryStats) error {
	var rec walRecord // each record is decoded over the last: Replay keeps none
	for i, seg := range segs {
		segName := path.Join(dir, walSegName(seg))
		// A segment that cannot be read fails the recovery: skipping it
		// would make the next segment's first LSN look like a gap and
		// truncate acknowledged records that are still on disk.
		blob, err := readWALSeg(fsys, segName)
		if err != nil {
			return fmt.Errorf("serve: reading %s: %w", segName, err)
		}
		off := 0
		for off < len(blob) {
			n, derr := rec.decode(blob[off:])
			if derr != nil || rec.lsn > stats.LastLSN+1 {
				// A torn tail or an LSN gap: nothing after it is
				// replayable.
				stats.TornBytes += int64(len(blob) - off)
				_ = fsys.Truncate(segName, int64(off))
				return removeSegsPast(fsys, dir, segs[i:], stats)
			}
			if rec.lsn <= stats.LastLSN {
				off += n // already covered by the engine's artifacts
				continue
			}
			if err := be.Replay(backend.Write{Puts: rec.puts, Dels: rec.dels}); err != nil {
				return err
			}
			stats.LastLSN = rec.lsn
			stats.Replayed++
			off += n
		}
	}
	return nil
}

// removeSegsPast removes the segments that start past the last
// replayed record, counting their bytes as torn. The writer starts a
// new timeline at LastLSN+1: a record left in such a segment would be
// replayed by a later recovery, or shipped by WALTail, in place of the
// acknowledged record that reuses its LSN.
func removeSegsPast(fsys FS, dir string, segs []uint64, stats *RecoveryStats) error {
	for _, seg := range segs {
		if seg <= stats.LastLSN {
			continue
		}
		name := path.Join(dir, walSegName(seg))
		if blob, err := readWALSeg(fsys, name); err == nil {
			stats.TornBytes += int64(len(blob))
		}
		if err := fsys.Remove(name); err != nil {
			return fmt.Errorf("serve: removing %s past the replayed log: %w", name, err)
		}
	}
	return nil
}

// readWALSeg reads one WAL segment file, in one allocation when the
// file knows its size (an *os.File does), as os.ReadFile does.
func readWALSeg(fsys FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := 0
	if s, ok := f.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := s.Stat(); err == nil {
			size = int(fi.Size())
		}
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err = buf.ReadFrom(f)
	return buf.Bytes(), err
}

// pruneWAL removes WAL segments whose records are all covered by the
// engine checkpoint at keepCkpt, sparing the active segment keepSeg
// and, for replication catch-up, the newest retain superseded
// segments. Best-effort: leftover files are harmless (recovery skips
// their already-covered records) and reclaimed next time.
func pruneWAL(fsys FS, dir string, keepCkpt uint64, keepSeg uint64, retain int) {
	segs, err := listWALSegs(fsys, dir)
	if err != nil {
		return
	}
	var stale []uint64
	for _, seg := range segs {
		if seg <= keepCkpt && seg != keepSeg {
			stale = append(stale, seg)
		}
	}
	if retain > len(stale) {
		retain = len(stale)
	}
	for _, seg := range stale[:len(stale)-retain] {
		_ = fsys.Remove(path.Join(dir, walSegName(seg)))
	}
}
