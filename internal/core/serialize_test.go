package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pbtree/internal/memsys"
)

func TestSerializeRoundTrip(t *testing.T) {
	for _, cfg := range []Config{
		{Width: 1},
		{Width: 8, Prefetch: true, JumpArray: JumpExternal, ChunkLines: 4},
		{Width: 4, Prefetch: true, JumpArray: JumpInternal, PrefetchDist: 5},
	} {
		src := newTestTree(t, cfg)
		pairs := sortedPairs(12345)
		if err := src.Bulkload(pairs, 0.85); err != nil {
			t.Fatal(err)
		}
		// Mutate after bulkload so the stream reflects live state.
		src.Insert(3, 99)
		src.Delete(pairs[100].Key)

		var buf bytes.Buffer
		n, err := src.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
		}

		dst, err := Load(&buf, nil, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if dst.Len() != src.Len() {
			t.Fatalf("Len %d, want %d", dst.Len(), src.Len())
		}
		c := dst.Config()
		if c.Width != src.cfg.Width || c.JumpArray != src.cfg.JumpArray ||
			c.Prefetch != src.cfg.Prefetch || c.ChunkLines != src.cfg.ChunkLines ||
			c.PrefetchDist != src.cfg.PrefetchDist {
			t.Fatalf("config not preserved: %+v", c)
		}
		if tid, ok := dst.Search(3); !ok || tid != 99 {
			t.Fatal("post-bulkload insert lost")
		}
		if _, ok := dst.Search(pairs[100].Key); ok {
			t.Fatal("deleted key resurrected")
		}
		for _, p := range pairs[:500] {
			if p.Key == pairs[100].Key {
				continue
			}
			if _, ok := dst.Search(p.Key); !ok {
				t.Fatalf("key %d lost in round trip", p.Key)
			}
		}
	}
}

func TestSerializeEmptyTree(t *testing.T) {
	src := newTestTree(t, Config{Width: 8, Prefetch: true})
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dst, err := Load(&buf, nil, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 0 {
		t.Fatalf("Len = %d", dst.Len())
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader(nil), nil, 1.0); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := Load(bytes.NewReader([]byte("XXXX0000000000000000000000")), nil, 1.0); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated pair section.
	src := newTestTree(t, Config{Width: 1})
	src.Insert(1, 1)
	src.Insert(2, 2)
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := Load(bytes.NewReader(trunc), nil, 1.0); err == nil {
		t.Error("truncated stream accepted")
	}
	// A stream of more than one chunk, cut exactly at the end of its
	// first chunk, inside a pair of its second, and inside a pair of its
	// first: each is an unexpected EOF, and what Load allocates stays
	// within the bound of the encoder this one replaced (1.85 MB for
	// these streams) — a chunk, never the header's count.
	for _, cut := range cutStreams(t) {
		var err error
		got := allocated(func() { _, err = Load(bytes.NewReader(cut), nil, 1.0) })
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("stream cut at %d bytes: err %v, want unexpected EOF", len(cut), err)
		}
		if got > 2<<20 {
			t.Errorf("stream cut at %d bytes: Load allocated %d bytes, want <= 2 MiB", len(cut), got)
		}
	}
	// Corrupt jump-array kind.
	full := buf.Bytes()
	full[6] = 9 // JumpArray byte in the header
	if _, err := Load(bytes.NewReader(full), nil, 1.0); err == nil {
		t.Error("corrupt jump-array kind accepted")
	}
}

// TestQuickSerializeRoundTrip: arbitrary contents survive the round
// trip.
func TestQuickSerializeRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		src := newTestTree(t, Config{Width: 8, Prefetch: true, JumpArray: JumpExternal})
		model := map[Key]TID{}
		for _, v := range raw {
			k := Key(v) + 1
			src.Insert(k, TID(v))
			model[k] = TID(v)
		}
		var buf bytes.Buffer
		if _, err := src.WriteTo(&buf); err != nil {
			return false
		}
		dst, err := Load(&buf, nil, 0.9)
		if err != nil {
			return false
		}
		if dst.Len() != len(model) {
			return false
		}
		for k, want := range model {
			got, ok := dst.Search(k)
			if !ok || got != want {
				return false
			}
		}
		return dst.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// referenceWriteTo is the encoder WriteTo replaced — the header struct
// and 512-pair chunks through binary.Write into a 4 KiB bufio.Writer —
// kept as the byte-for-byte definition of the PBT1 stream.
func referenceWriteTo(t *Tree, w io.Writer) (int64, error) {
	type header struct {
		Magic        [4]byte
		Width        uint16
		JumpArray    uint8
		Prefetch     uint8
		PrefetchDist uint32
		ChunkLines   uint32
		Count        uint64
	}
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

// forkedLineage bulkloads n pairs, forks, and applies ops random
// inserts and deletes a version each: the shape a shard serves and
// checkpoints, its leaves wherever copy-on-write put them.
func forkedLineage(tb testing.TB, n, ops int) *Tree {
	tb.Helper()
	tr := MustNew(Config{Width: 8, Prefetch: true, Mem: memsys.DefaultNative()})
	if err := tr.Bulkload(sortedPairs(n), 0.8); err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < ops; i++ {
		next := tr.Fork()
		if k := Key(r.Intn(8*n) + 1); r.Intn(3) == 0 {
			next.Delete(k)
		} else {
			next.Insert(k, TID(i))
		}
		next.Release(tr)
		tr = next
	}
	return tr
}

// referenceCases are the trees TestWriteToMatchesReference encodes
// both ways.
func referenceCases(t *testing.T) map[string]*Tree {
	cases := map[string]*Tree{
		"empty":  newTestTree(t, Config{Width: 8, Prefetch: true}),
		"forked": forkedLineage(t, 40_000, 10_000),
	}
	leaf := newTestTree(t, Config{Width: 1, Mem: memsys.DefaultNative()})
	for i := 1; i <= 5; i++ {
		leaf.Insert(Key(i), TID(10*i))
	}
	cases["one-leaf"] = leaf
	for _, w := range []int{1, 2, 4, 8, 16} {
		for _, fill := range []float64{0.5, 1.0} {
			tr := newTestTree(t, Config{Width: w, Prefetch: w > 1, Mem: memsys.DefaultNative()})
			// 40 000 pairs is 320 KB of stream: more than one write.
			if err := tr.Bulkload(sortedPairs(40_000), fill); err != nil {
				t.Fatal(err)
			}
			cases[fmt.Sprintf("w%d-fill%.1f", w, fill)] = tr
		}
	}
	sim := newTestTree(t, Config{Width: 8, Prefetch: true, JumpArray: JumpExternal})
	if err := sim.Bulkload(sortedPairs(5000), 0.7); err != nil {
		t.Fatal(err)
	}
	sim.Insert(3, 3)
	sim.Delete(800)
	cases["sim-external"] = sim
	return cases
}

// TestWriteToMatchesReference: the copy-loop encoder writes exactly the
// reference encoder's bytes, EncodePairs of the tree's pairs writes
// them too, and they load back to the tree's pairs.
func TestWriteToMatchesReference(t *testing.T) {
	for name, tr := range referenceCases(t) {
		t.Run(name, func(t *testing.T) {
			var want, got bytes.Buffer
			wn, err := referenceWriteTo(tr, &want)
			if err != nil {
				t.Fatal(err)
			}
			gn, err := tr.WriteTo(&got)
			if err != nil {
				t.Fatal(err)
			}
			if gn != wn || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("WriteTo wrote %d bytes, reference %d; equal=%v", gn, wn, bytes.Equal(got.Bytes(), want.Bytes()))
			}
			pairs := tr.AppendPairs(nil)
			enc, err := EncodePairs(tr.Config(), pairs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, want.Bytes()) {
				t.Fatal("EncodePairs differs from the reference stream")
			}
			mem := memsys.Model(memsys.DefaultNative())
			if tr.sim != nil {
				mem = memsys.Default() // a jump-pointer array loads onto a simulated tree only
			}
			back, err := Load(&got, mem, 0.8)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(back.AppendPairs(nil), pairs) {
				t.Fatal("Load does not give back the tree's pairs")
			}
		})
	}
}

var errLimit = errors.New("writer full")

// limitWriter accepts limit bytes, then fails every write; with short
// set the failing write first takes what is left of the limit. It
// counts Write calls.
type limitWriter struct {
	n, limit, calls int
	short           bool
}

func (w *limitWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.n+len(p) <= w.limit {
		w.n += len(p)
		return len(p), nil
	}
	k := 0
	if w.short {
		k = w.limit - w.n
		w.n = w.limit
	}
	return k, errLimit
}

// liarWriter takes half of every write and reports no error.
type liarWriter struct{}

func (liarWriter) Write(p []byte) (int, error) { return len(p) / 2, nil }

// TestWriteToWriterErrors: a failing or short writer gets its error
// back, with the bytes it actually took as the count (io.WriterTo).
func TestWriteToWriterErrors(t *testing.T) {
	tr := forkedLineage(t, 100_000, 0) // 800 KB: four writes
	total := headerSize + pairSize*tr.Len()
	for _, limit := range []int{0, 10, headerSize, writeChunk - 1, writeChunk, writeChunk + 100, total - 1} {
		for _, short := range []bool{false, true} {
			w := &limitWriter{limit: limit, short: short}
			n, err := tr.WriteTo(w)
			if err != errLimit || n != int64(w.n) {
				t.Errorf("limit %d short %v: WriteTo = %d, %v; writer took %d", limit, short, n, err, w.n)
			}
		}
	}
	if n, err := tr.WriteTo(liarWriter{}); err != io.ErrShortWrite || n != writeChunk/2 {
		t.Errorf("short write without an error: WriteTo = %d, %v", n, err)
	}
}

// TestWriteToCallsAndAllocs is a ratchet on the encoder's cost: an
// N-pair tree is written in at most ⌈(24+8N)/256 KiB⌉+1 Write calls,
// with at most one allocation whatever N (the pooled buffer, when the
// pool was emptied by a collection or the race detector).
func TestWriteToCallsAndAllocs(t *testing.T) {
	for _, n := range []int{0, 1000, 100_000, 400_000} {
		tr := forkedLineage(t, max(n, 1), 0)
		if n == 0 {
			tr = MustNew(Config{Width: 8, Prefetch: true, Mem: memsys.DefaultNative()})
		}
		w := &limitWriter{limit: math.MaxInt}
		if _, err := tr.WriteTo(w); err != nil {
			t.Fatal(err)
		}
		size := headerSize + pairSize*tr.Len()
		if bound := (size+256<<10-1)/(256<<10) + 1; w.calls > bound || w.n != size {
			t.Errorf("%d pairs: %d Write calls for %d bytes, want <= %d calls for %d", n, w.calls, w.n, bound, size)
		}
		if a := testing.AllocsPerRun(5, func() { tr.WriteTo(io.Discard) }); a > 1 {
			t.Errorf("%d pairs: WriteTo allocates %.0f times, want <= 1", n, a)
		}
	}
}
