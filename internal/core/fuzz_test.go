package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"pbtree/internal/memsys"
)

// validStream serializes a small tree, producing a well-formed seed
// input for the fuzzers.
func validStream(tb testing.TB, n int, cfg Config) []byte {
	tb.Helper()
	tr := MustNew(cfg) // the stream is the same on either model
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{Key: Key(8 * (i + 1)), TID: TID(i + 1)}
	}
	if err := tr.Bulkload(pairs, 1.0); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// cutStreams returns a stream of loadChunkPairs+10 pairs cut at the
// end of its first chunk, inside a pair of its second chunk, and inside
// a pair of its first.
func cutStreams(tb testing.TB) [][]byte {
	s := validStream(tb, loadChunkPairs+10, Config{Width: 8, Prefetch: true})
	chunkEnd := headerSize + pairSize*loadChunkPairs
	return [][]byte{s[:chunkEnd], s[:chunkEnd+4], s[:headerSize+pairSize*100+3]}
}

// FuzzLoad feeds arbitrary bytes to the deserializer: it must either
// return a structurally sound tree or an error — never panic and never
// allocate proportionally to a hostile header field.
func FuzzLoad(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("PBT1"))
	f.Add(validStream(f, 50, Config{Width: 1}))
	f.Add(validStream(f, 200, Config{Width: 8, Prefetch: true}))
	f.Add(validStream(f, 100, Config{Width: 8, Prefetch: true, JumpArray: JumpExternal}))
	// A truncated stream: valid header claiming more pairs than follow.
	trunc := validStream(f, 50, Config{Width: 1})
	f.Add(trunc[:len(trunc)-13])
	// A header with an absurd pair count and no data behind it.
	huge := append([]byte{}, trunc[:24]...)
	binary.LittleEndian.PutUint64(huge[16:], 1<<40)
	f.Add(huge)
	// The widest node the format admits and nothing in it: one 256 KB
	// block (TestLoadWidestEmptyTreeIsBounded pins the allocation).
	f.Add(wideEmptyStream(f))
	for _, cut := range cutStreams(f) {
		f.Add(cut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Load(bytes.NewReader(data), memsys.DefaultNative(), 1.0)
		if err != nil {
			return
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("loaded tree violates invariants: %v", err)
		}
	})
}

// FuzzSerializeRoundTrip builds a tree from fuzzer-chosen pairs and
// checks that WriteTo → Load reproduces it exactly.
func FuzzSerializeRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(1), false)
	f.Add([]byte{0, 0, 0, 1, 1, 1, 1, 0}, uint8(8), true)
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(4), true)

	f.Fuzz(func(t *testing.T, raw []byte, width uint8, prefetch bool) {
		if width == 0 || width > 16 {
			return
		}
		// Interpret raw as little-endian <key,tid> pairs; dedup and sort
		// by construction (strictly increasing keys derived from the
		// bytes) so Bulkload accepts them.
		var pairs []Pair
		last := uint32(0)
		for i := 0; i+8 <= len(raw); i += 8 {
			k := binary.LittleEndian.Uint32(raw[i:])
			tid := binary.LittleEndian.Uint32(raw[i+4:])
			key := last + 1 + k%1024 // strictly increasing
			if key < last {
				break // wrapped
			}
			pairs = append(pairs, Pair{Key: Key(key), TID: TID(tid)})
			last = key
		}
		cfg := Config{Width: int(width), Prefetch: prefetch, Mem: memsys.DefaultNative()}
		tr, err := New(cfg)
		if err != nil {
			return
		}
		if err := tr.Bulkload(pairs, 1.0); err != nil {
			t.Fatalf("bulkload rejected constructed pairs: %v", err)
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Load(bytes.NewReader(buf.Bytes()), memsys.DefaultNative(), 1.0)
		if err != nil {
			t.Fatalf("round trip failed to load: %v", err)
		}
		gotPairs := got.AppendPairs(nil)
		if len(gotPairs) != len(pairs) {
			t.Fatalf("round trip: %d pairs, want %d", len(gotPairs), len(pairs))
		}
		for i := range pairs {
			if gotPairs[i] != pairs[i] {
				t.Fatalf("round trip pair %d: got %+v, want %+v", i, gotPairs[i], pairs[i])
			}
		}
		if got.Config().Width != int(width) || got.Config().Prefetch != prefetch {
			t.Fatalf("round trip lost configuration: %+v", got.Config())
		}
	})
}

// FuzzTreeOps drives one fuzzer-chosen insert/delete/search sequence
// through a native tree, its simulated twin, a lineage of forked
// versions (versionOracle) and a map oracle at once.
// The two trees run different code and have different shapes — a
// link-free tree with branchless search and real prefetches against
// the paper's linked tree, with a jump-pointer array, probe-per-key
// search and simulated addresses — so every result must agree op by
// op, both must keep their structural invariants as the ops run, and
// both must hold the oracle's contents at the end.
func FuzzTreeOps(f *testing.F) {
	mk := func(ops ...byte) []byte { return ops }
	f.Add(mk(), uint8(8), true)
	f.Add(mk(0, 10, 0, 0, 20, 0, 0, 15, 0, 1, 10, 0, 2, 15, 0), uint8(8), false)
	f.Add(mk(0, 255, 255, 0, 0, 0, 1, 255, 255, 2, 0, 0), uint8(1), true)
	seq := make([]byte, 0, 300)
	for i := byte(1); i <= 50; i++ {
		seq = append(seq, 0, i, 0) // fifty ascending inserts
	}
	for i := byte(1); i <= 50; i += 2 {
		seq = append(seq, 1, i, 0) // delete every other
	}
	f.Add(seq, uint8(2), true)
	// Delete a four-level tree down to a lone leaf and refill it, on
	// both jump-array kinds: every block is recycled, the root
	// collapses and regrows.
	cycle := make([]byte, 0, 3*450)
	for _, op := range []byte{0, 1, 0} {
		for i := byte(1); i <= 150; i++ {
			cycle = append(cycle, op, i*37, i) // scattered, distinct keys
		}
	}
	f.Add(cycle, uint8(1), true)
	f.Add(cycle, uint8(1), false)
	// The same cycle with a version published after every op (the top
	// bit) and, every fourth op, one released out of order (the next
	// bit): insert and delete are 129 and 130 with the top bit, 192 and
	// 193 with both.
	versions := make([]byte, 0, 3*450)
	for _, op := range [][2]byte{{129, 192}, {130, 193}, {129, 192}} {
		for i := byte(1); i <= 150; i++ {
			versions = append(versions, op[i%4/3], i*37, i)
		}
	}
	f.Add(versions, uint8(1), true)
	f.Add(versions, uint8(2), false)

	f.Fuzz(func(t *testing.T, ops []byte, width uint8, external bool) {
		if width == 0 || width > 16 {
			return
		}
		if len(ops) > 3*4096 {
			ops = ops[:3*4096] // bound invariant-check cost
		}
		// The native tree is link-free; its simulated twin links its
		// leaves and keeps either jump-pointer array.
		nat := MustNew(Config{Width: int(width), Prefetch: true, Mem: memsys.DefaultNative()})
		cfg := Config{Width: int(width), Prefetch: true, JumpArray: JumpInternal, Mem: memsys.Default()}
		if external {
			cfg.JumpArray = JumpExternal
		}
		sim := MustNew(cfg)
		// A third tree takes the same ops as a lineage of versions: the
		// op byte's top bit publishes one, at most four stay live, the
		// next bit releases one out of order.
		vo := newVersionOracle(t, Config{Width: int(width), Prefetch: true}, nil)
		check := func(i int) {
			if i%(64*3) == 0 || len(ops) <= 3*512 { // five trees' worth of walks
				vo.check(Key(i))
			}
			for _, tr := range []*Tree{nat, sim} {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("op %d (native=%v): %v", i, tr.sim == nil, err)
				}
			}
		}
		oracle := map[Key]TID{}
		for i := 0; i+3 <= len(ops); i += 3 {
			raw := binary.LittleEndian.Uint16(ops[i+1 : i+3])
			key := Key(raw)
			if raw == 0xFFFF {
				key = MaxKey // exercise the sentinel
			}
			want, had := oracle[key]
			switch ops[i] % 3 {
			case 0:
				tid := TID(raw) + 1
				if a, b := nat.Insert(key, tid), sim.Insert(key, tid); a == had || b == had {
					t.Fatalf("op %d: Insert(%d) added native=%v simulated=%v, oracle had=%v", i, key, a, b, had)
				}
				oracle[key] = tid
				vo.insert(key, tid)
			case 1:
				if a, b := nat.Delete(key), sim.Delete(key); a != had || b != had {
					t.Fatalf("op %d: Delete(%d) native=%v simulated=%v, oracle had=%v", i, key, a, b, had)
				}
				delete(oracle, key)
				vo.delete(key)
			case 2:
				for _, tr := range []*Tree{nat, sim} {
					if got, ok := tr.Search(key); ok != had || got != want {
						t.Fatalf("op %d: Search(%d) = %d,%v (native=%v), want %d,%v", i, key, got, ok, tr.sim == nil, want, had)
					}
				}
			}
			// Every op while that is cheap, else every sixteenth.
			checked := i%(16*3) == 0 || len(ops) <= 3*512
			if ops[i]&0x80 != 0 {
				vo.publish()
				switch {
				case len(vo.kept) > 4:
					vo.release(0, checked)
				case len(vo.kept) > 2 && ops[i]&0x40 != 0:
					vo.release(1, checked)
				}
			}
			if checked {
				check(i)
			}
		}
		check(len(ops))
		got, twin := nat.AppendPairs(nil), sim.AppendPairs(nil)
		if len(got) != len(oracle) || len(twin) != len(oracle) {
			t.Fatalf("native has %d pairs, simulated %d, oracle %d", len(got), len(twin), len(oracle))
		}
		for i, p := range got {
			if i > 0 && p.Key <= got[i-1].Key {
				t.Fatalf("AppendPairs out of order at %d", i)
			}
			if p != twin[i] || oracle[p.Key] != p.TID {
				t.Fatalf("pair %d: native %+v, simulated %+v, oracle tid %d", i, p, twin[i], oracle[p.Key])
			}
		}
	})
}
