package backend

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"io"
	"math/rand"
	"path"
	"slices"
	"testing"

	"pbtree/internal/core"
	"pbtree/internal/memsys"
	"pbtree/internal/storage"
)

// replayInput decodes a fuzz input into a checkpoint's pairs and the
// WAL records replayed over it. Byte 0 says whether there is a
// checkpoint at all; bytes 1–8 are a bitmask of the checkpoint's keys
// among 0..63. Each record follows as a header byte h — h&7 puts and
// h>>3&7 deletes — then two bytes (key, tid) a put and one byte a
// delete. Keys are below 64, so they repeat within and across records,
// a record may put and delete one key, deletes may miss, and a record
// may be empty (a Compact-only one, which logs nothing).
func replayInput(data []byte) (ckpt bool, base []core.Pair, ws []Write) {
	if len(data) < 9 {
		return false, nil, nil
	}
	ckpt = data[0]&1 == 1
	mask := binary.LittleEndian.Uint64(data[1:9])
	for k := range 64 {
		if mask>>k&1 == 1 {
			base = append(base, core.Pair{Key: core.Key(k), TID: core.TID(1000 + k)})
		}
	}
	for b := data[9:]; len(b) > 0; {
		h := b[0]
		b = b[1:]
		var w Write
		for range h & 7 {
			if len(b) < 2 {
				break
			}
			w.Puts = append(w.Puts, core.Pair{Key: core.Key(b[0] % 64), TID: core.TID(b[1])})
			b = b[2:]
		}
		for range h >> 3 & 7 {
			if len(b) < 1 {
				break
			}
			w.Dels = append(w.Dels, core.Key(b[0]%64))
			b = b[1:]
		}
		w.Compact = h>>6 == 3 && len(w.Puts)+len(w.Dels) == 0
		ws = append(ws, w)
	}
	return ckpt, base, ws
}

// recoverReplaySeal runs the recovery path of a durable engine: the
// checkpoint holding base, Recover, Replay of every record, Seal — or,
// when ckpt is false, Recover finding nothing and Bootstrap from base,
// which Seal must leave as it was. It returns the sealed contents.
func recoverReplaySeal(t *testing.T, ckpt bool, base []core.Pair, ws []Write) []core.Pair {
	t.Helper()
	fs := storage.NewMemFS()
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Width: 2, Prefetch: true, Mem: memsys.DefaultNative()}
	if ckpt {
		img, err := core.EncodePairs(cfg, base)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteAtomic(fs, path.Join("d", CheckpointName(1)), func(w io.Writer) error {
			_, err := w.Write(img)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	b := NewPBTree(cfg, 0.7, fs, "d")
	if _, _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	var seed []core.Pair
	if !ckpt {
		// Spare capacity for a pair an operation, so that a merge
		// writing into the seed's array would have room to.
		room := len(base)
		for _, w := range ws {
			room += len(w.Puts) + len(w.Dels)
		}
		seed = append(make([]core.Pair, 0, room), base...)
		if err := b.Bootstrap(All(seed)); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range ws {
		if err := b.Replay(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Seal(2); err != nil {
		t.Fatal(err)
	}
	if !ckpt && !slices.Equal(seed, base) {
		t.Fatal("Seal wrote into the bootstrap seed's array")
	}
	s := b.Snapshot()
	defer s.Release()
	if s.Count() != b.Stats().Count {
		t.Fatalf("sealed count %d, stats %d", s.Count(), b.Stats().Count)
	}
	return s.AppendPairs(nil)
}

// applyInOrder is the reference: the checkpoint's pairs, then every
// record applied to a tree in LSN order, as the engine applies a live
// batch.
func applyInOrder(t *testing.T, base []core.Pair, ws []Write) []core.Pair {
	t.Helper()
	tr, err := core.New(core.Config{Width: 2, Prefetch: true, Mem: memsys.DefaultNative()})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Bulkload(base, 1); err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		applyWrite(tr, w)
	}
	return tr.AppendPairs(nil)
}

// FuzzReplaySeal: recovering through Replay's log and Seal's
// sort-merge leaves exactly what applying the records one by one
// leaves, over a checkpoint or a bootstrap seed. The seed corpus is
// in testdata/fuzz/FuzzReplaySeal.
func FuzzReplaySeal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ckpt, base, ws := replayInput(data)
		got := recoverReplaySeal(t, ckpt, base, ws)
		if want := applyInOrder(t, base, ws); !slices.Equal(got, want) {
			t.Fatalf("replay+seal = %v\nwant %v", got, want)
		}
	})
}

// TestReplaySealWideKeys runs the same comparison on keys spread over
// the whole key space, so that every pass of the radix sort runs, and
// on a tail much larger and one much smaller than the checkpoint or the
// seed.
func TestReplaySealWideKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hot := make([]core.Key, 2000)
	for i := range hot {
		hot[i] = core.Key(rng.Uint32())
	}
	var base []core.Pair
	for _, k := range hot[:500] {
		base = append(base, core.Pair{Key: k, TID: 1})
	}
	slices.SortFunc(base, func(a, b core.Pair) int { return cmp.Compare(a.Key, b.Key) })
	base = slices.CompactFunc(base, func(a, b core.Pair) bool { return a.Key == b.Key })
	var ws []Write
	for i := range 20000 {
		var w Write
		for range rng.Intn(4) {
			w.Puts = append(w.Puts, core.Pair{Key: hot[rng.Intn(len(hot))], TID: core.TID(i)})
		}
		for range rng.Intn(3) {
			w.Dels = append(w.Dels, hot[rng.Intn(len(hot))])
		}
		ws = append(ws, w)
	}
	for _, ws := range [][]Write{ws, ws[:50]} {
		want := applyInOrder(t, base, ws)
		for _, ckpt := range []bool{true, false} {
			if got := recoverReplaySeal(t, ckpt, base, ws); !slices.Equal(got, want) {
				t.Fatalf("replay+seal of %d records (checkpoint %v) gives %d pairs, applying in order %d", len(ws), ckpt, len(got), len(want))
			}
		}
	}
}

// TestRecoverFallsBackFromDamagedCheckpoint: a newest checkpoint whose
// bytes were damaged at rest — cut short, or with pairs out of order
// under an intact length — is passed over for the older one, and the
// engine seals what that one holds.
func TestRecoverFallsBackFromDamagedCheckpoint(t *testing.T) {
	cfg := core.Config{Width: 2, Prefetch: true, Mem: memsys.DefaultNative()}
	older, newer := seqPairs(50), seqPairs(80)
	for name, damage := range map[string]func([]byte) []byte{
		"truncated": func(img []byte) []byte { return img[:len(img)-3] },
		"unsorted": func(img []byte) []byte {
			a, b := len(img)-16, len(img)-8 // swap the last two pairs
			for i := range 8 {
				img[a+i], img[b+i] = img[b+i], img[a+i]
			}
			return img
		},
	} {
		t.Run(name, func(t *testing.T) {
			fs := storage.NewMemFS()
			if err := fs.MkdirAll("d"); err != nil {
				t.Fatal(err)
			}
			for lsn, pairs := range map[uint64][]core.Pair{5: older, 9: newer} {
				img, err := core.EncodePairs(cfg, pairs)
				if err != nil {
					t.Fatal(err)
				}
				if lsn == 9 {
					img = damage(img)
				}
				if err := WriteAtomic(fs, path.Join("d", CheckpointName(lsn)), func(w io.Writer) error {
					_, err := io.Copy(w, bytes.NewReader(img))
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}
			b := NewPBTree(cfg, 0.7, fs, "d")
			lsn, had, err := b.Recover()
			if err != nil || !had || lsn != 5 {
				t.Fatalf("Recover = %d, %v, %v; want the older checkpoint, 5", lsn, had, err)
			}
			if err := b.Seal(6); err != nil {
				t.Fatal(err)
			}
			if got := b.Stats().CheckpointBytes; got != core.EncodedSize(len(older)) {
				t.Errorf("CheckpointBytes %d after recovering %d pairs", got, len(older))
			}
			s := b.Snapshot()
			defer s.Release()
			if got := s.AppendPairs(nil); !slices.Equal(got, older) {
				t.Fatalf("sealed %d pairs, want the older checkpoint's %d", len(got), len(older))
			}
		})
	}
}
