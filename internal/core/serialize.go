package core

// Persistence: a Tree serializes to a compact binary stream (its
// configuration plus the sorted pairs) and is rebuilt by bulkloading
// on load, the way production systems persist and rebuild main-memory
// indexes. Simulated cache state is not part of the stream.
//
// The stream (PBT1) is little-endian: a 24-byte header — magic
// "PBT1", width u16, jump-array kind u8, prefetch flag u8, prefetch
// distance u32, chunk lines u32, pair count u64 — then count
// (key u32, tid u32) pairs in key order.

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"pbtree/internal/memsys"
)

// serializeMagic identifies the stream format; bump the trailing digit
// on incompatible changes.
var serializeMagic = [4]byte{'P', 'B', 'T', '1'}

const (
	headerSize = 24 // bytes of the stream prologue
	pairSize   = 8  // bytes of one encoded (key, tid) pair

	// writeChunk is the size of WriteTo's buffer and so of each of its
	// writes but the last. It and headerSize are multiples of pairSize:
	// WriteTo's loop relies on the pairs filling the buffer exactly.
	writeChunk = 256 << 10
)

// writeBufs recycles WriteTo's buffer: a checkpoint allocates nothing
// that grows with the tree.
var writeBufs = sync.Pool{New: func() any { return new([writeChunk]byte) }}

// putHeader encodes the stream prologue for a tree of the resolved
// configuration cfg holding count pairs into b[:headerSize].
func putHeader(b []byte, cfg Config, count uint64) {
	copy(b, serializeMagic[:])
	binary.LittleEndian.PutUint16(b[4:], uint16(cfg.Width))
	b[6] = uint8(cfg.JumpArray)
	b[7] = 0
	if cfg.Prefetch {
		b[7] = 1
	}
	binary.LittleEndian.PutUint32(b[8:], uint32(cfg.PrefetchDist))
	binary.LittleEndian.PutUint32(b[12:], uint32(cfg.ChunkLines))
	binary.LittleEndian.PutUint64(b[16:], count)
}

// putPairs encodes keys[i], tids[i] pairwise into b, which holds
// len(keys) pairs: a pair is one little-endian word, key in the low
// half.
func putPairs(b []byte, keys, tids []uint32) {
	tids = tids[:len(keys)]
	for i, k := range keys {
		binary.LittleEndian.PutUint64(b[:pairSize], uint64(k)|uint64(tids[i])<<32)
		b = b[pairSize:]
	}
}

// WriteTo serializes the tree's configuration and contents. It
// implements io.WriterTo.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	buf := writeBufs.Get().(*[writeChunk]byte)
	defer writeBufs.Put(buf)
	putHeader(buf[:], t.cfg, uint64(t.count))
	off, written := headerSize, int64(0)
	var err error
	flush := func() bool {
		var n int
		n, err = w.Write(buf[:off])
		if written += int64(n); err == nil && n < off {
			err = io.ErrShortWrite
		}
		off = 0
		return err == nil
	}
	// Stream the pairs in key order, filling the buffer to the brim: a
	// leaf that does not fit is split across two writes.
	t.eachLeaf(t.root, func(n node) bool {
		keys, tids := t.keys(n)[:n.count()], t.ptrs(n)
		for len(keys) > 0 {
			if off == writeChunk && !flush() {
				return false
			}
			m := min(len(keys), (writeChunk-off)/pairSize)
			putPairs(buf[off:off+pairSize*m], keys[:m], tids)
			off += pairSize * m
			keys, tids = keys[m:], tids[m:]
		}
		return true
	})
	if err == nil {
		flush()
	}
	return written, err
}

// EncodePairs returns the stream WriteTo writes for a tree of
// configuration cfg holding exactly pairs (sorted by key, no
// duplicates) — a stream records no tree shape — without the tree.
func EncodePairs(cfg Config, pairs []Pair) ([]byte, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, headerSize+pairSize*len(pairs))
	putHeader(buf, cfg, uint64(len(pairs)))
	b := buf[headerSize:]
	for _, p := range pairs {
		binary.LittleEndian.PutUint64(b[:pairSize], uint64(p.Key)|uint64(p.TID)<<32)
		b = b[pairSize:]
	}
	return buf, nil
}

// Stream-format sanity bounds. The writer never exceeds them; a reader
// that does is handing us a corrupt or hostile stream, and rejecting it
// up front keeps Load's allocations proportional to the actual data
// (never to an attacker-chosen header field).
const (
	maxLoadWidth        = 1 << 12
	maxLoadPrefetchDist = 1 << 20
	maxLoadChunkLines   = 1 << 20
	loadChunkPairs      = 1 << 16 // pairs read per chunk while streaming
)

// Load reconstructs a tree from a stream produced by WriteTo,
// bulkloading it at the given fill factor onto the supplied memory
// model (nil selects a fresh default simulated hierarchy). Corrupt
// streams are rejected with an error, never a panic or an unbounded
// allocation. Load reads exactly the stream's bytes from r.
func Load(r io.Reader, mem memsys.Model, fill float64) (*Tree, error) {
	cfg, count, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	cfg.Mem = mem
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	pairs, err := readPairs(r, count)
	if err != nil {
		return nil, err
	}
	if err := t.Bulkload(pairs, fill); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadPairs decodes the pairs of a stream produced by WriteTo without
// building a tree: the half of Load before the bulkload, for a caller
// that merges the pairs with more before building one. A stream whose
// pairs are not sorted by key and unique is rejected, as Load rejects
// it. ReadPairs reads exactly the stream's bytes from r.
func ReadPairs(r io.Reader) ([]Pair, error) {
	_, count, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	pairs, err := readPairs(r, count)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Key <= pairs[i-1].Key {
			return nil, fmt.Errorf("core: stream pairs not sorted/unique at %d", i)
		}
	}
	return pairs, nil
}

// EncodedSize is the length of the stream WriteTo writes for a tree of
// n pairs.
func EncodedSize(n int) int64 { return headerSize + pairSize*int64(n) }

// readHeader decodes and bounds-checks the stream prologue, returning
// the configuration it records (Mem unset) and the pair count.
func readHeader(r io.Reader) (Config, uint64, error) {
	var h [headerSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return Config{}, 0, fmt.Errorf("core: reading header: %w", err)
	}
	le := binary.LittleEndian
	width, jump, prefetch := le.Uint16(h[4:]), h[6], h[7]
	dist, chunkLines, count := le.Uint32(h[8:]), le.Uint32(h[12:]), le.Uint64(h[16:])
	if [4]byte(h[:4]) != serializeMagic {
		return Config{}, 0, fmt.Errorf("core: bad magic %q", string(h[:4]))
	}
	if jump > uint8(JumpInternal) {
		return Config{}, 0, fmt.Errorf("core: unknown jump-array kind %d", jump)
	}
	if prefetch > 1 {
		return Config{}, 0, fmt.Errorf("core: bad prefetch flag %d", prefetch)
	}
	if width > maxLoadWidth {
		return Config{}, 0, fmt.Errorf("core: width %d exceeds format bound %d", width, maxLoadWidth)
	}
	if dist > maxLoadPrefetchDist {
		return Config{}, 0, fmt.Errorf("core: prefetch distance %d exceeds format bound %d", dist, maxLoadPrefetchDist)
	}
	if chunkLines > maxLoadChunkLines {
		return Config{}, 0, fmt.Errorf("core: chunk size %d exceeds format bound %d", chunkLines, maxLoadChunkLines)
	}
	return Config{
		Width:        int(width),
		Prefetch:     prefetch == 1,
		JumpArray:    JumpArrayKind(jump),
		PrefetchDist: int(dist),
		ChunkLines:   int(chunkLines),
	}, count, nil
}

// readPairs decodes the count pairs that follow the header. It streams
// them in bounded chunks: memory stays proportional to what the reader
// actually delivers, so a huge count in a truncated stream fails with
// an error instead of exhausting memory.
func readPairs(r io.Reader, count uint64) ([]Pair, error) {
	chunk := min(count, loadChunkPairs)
	pairs := make([]Pair, 0, chunk)
	raw := make([]byte, pairSize*chunk)
	for remaining := count; remaining > 0; {
		b := raw[:pairSize*min(remaining, chunk)]
		if _, err := io.ReadFull(r, b); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised more
			}
			return nil, fmt.Errorf("core: reading %d pairs: %w", count, err)
		}
		remaining -= uint64(len(b) / pairSize)
		if len(pairs)+len(b)/pairSize > cap(pairs) {
			pairs = slices.Grow(pairs, len(pairs)) // double: at most twice what arrived
		}
		for ; len(b) >= pairSize; b = b[pairSize:] {
			v := binary.LittleEndian.Uint64(b)
			pairs = append(pairs, Pair{Key: Key(v), TID: TID(v >> 32)})
		}
	}
	return pairs, nil
}
