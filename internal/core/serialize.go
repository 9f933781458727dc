package core

// Persistence: a Tree serializes to a compact binary stream (its
// configuration plus the sorted pairs) and is rebuilt by bulkloading
// on load, the way production systems persist and rebuild main-memory
// indexes. Simulated cache state is not part of the stream.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"pbtree/internal/memsys"
)

// serializeMagic identifies the stream format; bump the trailing digit
// on incompatible changes.
var serializeMagic = [4]byte{'P', 'B', 'T', '1'}

// header is the fixed-size stream prologue.
type header struct {
	Magic        [4]byte
	Width        uint16
	JumpArray    uint8
	Prefetch     uint8
	PrefetchDist uint32
	ChunkLines   uint32
	Count        uint64
}

// WriteTo serializes the tree's configuration and contents. It
// implements io.WriterTo.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	h := header{
		Magic:        serializeMagic,
		Width:        uint16(t.cfg.Width),
		JumpArray:    uint8(t.cfg.JumpArray),
		PrefetchDist: uint32(t.cfg.PrefetchDist),
		ChunkLines:   uint32(t.cfg.ChunkLines),
		Count:        uint64(t.count),
	}
	if t.cfg.Prefetch {
		h.Prefetch = 1
	}
	if err := binary.Write(cw, binary.LittleEndian, h); err != nil {
		return cw.n, err
	}
	// Stream the pairs in key order.
	buf := make([]uint32, 0, 2*512)
	var werr error
	t.eachLeaf(t.root, func(n node) bool {
		tids := t.ptrs(n)
		for i, k := range t.keys(n)[:n.count()] {
			buf = append(buf, k, tids[i])
			if len(buf) == cap(buf) {
				if werr = binary.Write(cw, binary.LittleEndian, buf); werr != nil {
					return false
				}
				buf = buf[:0]
			}
		}
		return true
	})
	if werr != nil {
		return cw.n, werr
	}
	if len(buf) > 0 {
		if err := binary.Write(cw, binary.LittleEndian, buf); err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
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
// allocation.
func Load(r io.Reader, mem memsys.Model, fill float64) (*Tree, error) {
	br := bufio.NewReader(r)
	var h header
	if err := binary.Read(br, binary.LittleEndian, &h); err != nil {
		return nil, fmt.Errorf("core: reading header: %w", err)
	}
	if h.Magic != serializeMagic {
		return nil, fmt.Errorf("core: bad magic %q", h.Magic[:])
	}
	if h.JumpArray > uint8(JumpInternal) {
		return nil, fmt.Errorf("core: unknown jump-array kind %d", h.JumpArray)
	}
	if h.Prefetch > 1 {
		return nil, fmt.Errorf("core: bad prefetch flag %d", h.Prefetch)
	}
	if h.Width > maxLoadWidth {
		return nil, fmt.Errorf("core: width %d exceeds format bound %d", h.Width, maxLoadWidth)
	}
	if h.PrefetchDist > maxLoadPrefetchDist {
		return nil, fmt.Errorf("core: prefetch distance %d exceeds format bound %d", h.PrefetchDist, maxLoadPrefetchDist)
	}
	if h.ChunkLines > maxLoadChunkLines {
		return nil, fmt.Errorf("core: chunk size %d exceeds format bound %d", h.ChunkLines, maxLoadChunkLines)
	}
	cfg := Config{
		Width:        int(h.Width),
		Prefetch:     h.Prefetch == 1,
		JumpArray:    JumpArrayKind(h.JumpArray),
		PrefetchDist: int(h.PrefetchDist),
		ChunkLines:   int(h.ChunkLines),
		Mem:          mem,
	}
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	// Stream the pairs in bounded chunks: memory stays proportional to
	// what the reader actually delivers, so a huge Count in a truncated
	// stream fails with an error instead of exhausting memory.
	chunk := min(h.Count, loadChunkPairs)
	pairs := make([]Pair, 0, chunk)
	raw := make([]uint32, 0, 2*chunk)
	for remaining := h.Count; remaining > 0; {
		n := min(remaining, chunk)
		raw = raw[:2*n]
		if err := binary.Read(br, binary.LittleEndian, raw); err != nil {
			return nil, fmt.Errorf("core: reading %d pairs: %w", h.Count, err)
		}
		for i := uint64(0); i < n; i++ {
			pairs = append(pairs, Pair{Key: Key(raw[2*i]), TID: TID(raw[2*i+1])})
		}
		remaining -= n
	}
	if err := t.Bulkload(pairs, fill); err != nil {
		return nil, err
	}
	return t, nil
}

// countingWriter tracks bytes written for the io.WriterTo contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
