package serve

// Per-shard write-ahead log. Each record is one atomically-applied
// mutation (the puts and deletes of one client batch that landed on
// this shard), framed as
//
//	u32 payload length | u32 CRC32C(payload) | payload
//	payload: u64 LSN | u32 nputs | u32 ndels
//	         | nputs × (u32 key, u32 tid) | ndels × u32 key
//
// all little-endian. LSNs are contiguous per shard starting at 1. A
// record is valid only if its frame is complete, its CRC matches, its
// counts are internally consistent, and its LSN continues the
// sequence; recovery stops at the first violation and truncates the
// tail, so a torn record can never surface as data and nothing past a
// corrupt record is ever replayed.
//
// The writer group-commits: all records of one drained mutation batch
// are written with a single Write (and, depending on the fsync policy,
// a single Sync) before any of the batch's acks fire.

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"time"

	"pbtree/internal/core"
	"pbtree/internal/obs"
)

// FsyncPolicy selects when the WAL is fsynced.
type FsyncPolicy uint8

const (
	// FsyncAlways syncs before every acknowledgement: an acked write
	// survives any crash.
	FsyncAlways FsyncPolicy = iota

	// FsyncEvery syncs at most once per fsyncInterval (group-commit
	// batches in between are only buffered in the OS): a crash can
	// lose up to one interval of acked writes, never tear a record.
	FsyncEvery

	// FsyncNever leaves syncing to the OS (and segment rotation):
	// fastest, weakest.
	FsyncNever
)

// fsyncInterval is FsyncEvery's sync period.
const fsyncInterval = 10 * time.Millisecond

// String implements fmt.Stringer (the -fsync flag values).
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncEvery:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", uint8(p))
}

// ParseFsyncPolicy parses a -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncEvery, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("serve: unknown fsync policy %q (want always, interval or never)", s)
}

// crcTable is the Castagnoli polynomial (CRC32C), the checksum used by
// most storage systems for its hardware support.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// walHeaderSize is the frame prologue: length + CRC.
const walHeaderSize = 8

// maxWALPayload bounds one record's payload. The writer never exceeds
// it; a reader seeing a larger length is looking at corruption and
// must not allocate for it.
const maxWALPayload = 1 << 26

// errWALTorn reports an incomplete or corrupt record: replay stops
// here and the tail is truncated.
var errWALTorn = errors.New("serve: torn or corrupt WAL record")

// walRecord is one decoded mutation record.
type walRecord struct {
	lsn  uint64
	puts []core.Pair
	dels []core.Key
}

// putU32 and putU64 append little-endian integers.
func putU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func putU64(dst []byte, v uint64) []byte {
	return putU32(putU32(dst, uint32(v)), uint32(v>>32))
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func getU64(b []byte) uint64 {
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}

// appendWALRecord appends one framed record to dst.
func appendWALRecord(dst []byte, lsn uint64, puts []core.Pair, dels []core.Key) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame, patched below
	dst = putU64(dst, lsn)
	dst = putU32(dst, uint32(len(puts)))
	dst = putU32(dst, uint32(len(dels)))
	for _, p := range puts {
		dst = putU32(dst, uint32(p.Key))
		dst = putU32(dst, uint32(p.TID))
	}
	for _, k := range dels {
		dst = putU32(dst, uint32(k))
	}
	payload := dst[start+walHeaderSize:]
	binaryPatchU32(dst[start:], uint32(len(payload)))
	binaryPatchU32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst
}

// binaryPatchU32 writes a little-endian u32 in place.
func binaryPatchU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// decodeWALRecord decodes the first record of b. It returns the record
// and the number of bytes consumed, or errWALTorn (possibly wrapped)
// if the frame is incomplete, oversized, fails its CRC, or is
// internally inconsistent. It never panics and never returns data from
// a record that does not fully verify.
func decodeWALRecord(b []byte) (walRecord, int, error) {
	var rec walRecord
	n, err := rec.decode(b)
	if err != nil {
		return walRecord{}, 0, err
	}
	return rec, n, nil
}

// decode is decodeWALRecord into rec, reusing its slices: recovery
// hands each record to the engine and decodes the next over it. After
// an error rec holds nothing to use.
func (rec *walRecord) decode(b []byte) (int, error) {
	if len(b) < walHeaderSize {
		return 0, fmt.Errorf("%w: %d-byte tail", errWALTorn, len(b))
	}
	length := getU32(b)
	if length > maxWALPayload {
		return 0, fmt.Errorf("%w: length %d exceeds bound %d", errWALTorn, length, maxWALPayload)
	}
	if uint64(len(b)-walHeaderSize) < uint64(length) {
		return 0, fmt.Errorf("%w: payload %d, have %d", errWALTorn, length, len(b)-walHeaderSize)
	}
	payload := b[walHeaderSize : walHeaderSize+int(length)]
	if crc32.Checksum(payload, crcTable) != getU32(b[4:]) {
		return 0, fmt.Errorf("%w: CRC mismatch", errWALTorn)
	}
	if len(payload) < 16 {
		return 0, fmt.Errorf("%w: payload %d below fixed fields", errWALTorn, len(payload))
	}
	nputs := getU32(payload[8:])
	ndels := getU32(payload[12:])
	want := uint64(16) + 8*uint64(nputs) + 4*uint64(ndels)
	if uint64(len(payload)) != want {
		return 0, fmt.Errorf("%w: counts %d/%d need %d payload bytes, have %d", errWALTorn, nputs, ndels, want, len(payload))
	}
	rec.lsn = getU64(payload)
	body := payload[16:]
	rec.puts = slices.Grow(rec.puts[:0], int(nputs))[:nputs]
	for i := range rec.puts {
		rec.puts[i] = core.Pair{Key: core.Key(getU32(body[8*i:])), TID: core.TID(getU32(body[8*i+4:]))}
	}
	body = body[8*nputs:]
	rec.dels = slices.Grow(rec.dels[:0], int(ndels))[:ndels]
	for i := range rec.dels {
		rec.dels[i] = core.Key(getU32(body[4*i:]))
	}
	return walHeaderSize + int(length), nil
}

// walWriter is one shard's open WAL segment. It is owned by the
// shard's writer goroutine; no method is concurrency-safe.
type walWriter struct {
	fs       FS
	name     string
	f        File
	buf      []byte // group-commit staging
	policy   FsyncPolicy
	lastSync time.Time
	records  uint64 // records appended to this segment
	syncNS   int64  // fsync time since takeSyncNS (lifecycle attribution)
	metrics  *obs.Metrics
}

// newWALWriter creates (truncating) a fresh segment.
func newWALWriter(fsys FS, name string, policy FsyncPolicy, m *obs.Metrics) (*walWriter, error) {
	f, err := fsys.Create(name)
	if err != nil {
		return nil, err
	}
	return &walWriter{fs: fsys, name: name, f: f, policy: policy, metrics: m}, nil
}

// add stages one record for the current group commit.
func (w *walWriter) add(lsn uint64, puts []core.Pair, dels []core.Key) {
	w.buf = appendWALRecord(w.buf, lsn, puts, dels)
	w.records++
}

// addRaw stages records that are already WAL-framed — the replication
// apply path, where a follower persists the primary's record bytes
// verbatim so both WAL timelines are byte-identical for the same LSN
// range. The caller has validated the framing and counted the
// records.
func (w *walWriter) addRaw(frames []byte, records uint64) {
	w.buf = append(w.buf, frames...)
	w.records += records
}

// commit writes the staged records with one Write and applies the
// fsync policy. After an error the staged records are discarded and
// nothing may be acknowledged.
func (w *walWriter) commit() error {
	if len(w.buf) == 0 {
		return nil
	}
	n := len(w.buf)
	_, err := w.f.Write(w.buf)
	w.buf = w.buf[:0]
	if err != nil {
		return err
	}
	w.metrics.Add(obs.WALAppends, 1)
	w.metrics.Add(obs.WALBytes, int64(n))
	switch w.policy {
	case FsyncAlways:
		return w.sync()
	case FsyncEvery:
		if now := time.Now(); now.Sub(w.lastSync) >= fsyncInterval {
			w.lastSync = now
			return w.sync()
		}
	}
	return nil
}

// sync forces the segment to stable storage, accumulating the fsync
// wall time for lifecycle attribution.
func (w *walWriter) sync() error {
	start := obs.Nanotime()
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncNS += obs.Nanotime() - start
	w.metrics.Add(obs.Fsyncs, 1)
	return nil
}

// takeSyncNS returns and resets the fsync time accumulated since the
// last call — the StageWALFsync share of the commit that just ran
// (zero when the policy skipped the sync).
func (w *walWriter) takeSyncNS() int64 {
	ns := w.syncNS
	w.syncNS = 0
	return ns
}

// close syncs and closes the segment (graceful-drain flush).
func (w *walWriter) close() error {
	err := w.commit()
	if serr := w.sync(); err == nil {
		err = serr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
