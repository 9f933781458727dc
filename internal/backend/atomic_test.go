package backend

import (
	"errors"
	"io"
	"strings"
	"testing"

	"pbtree/internal/core"
	"pbtree/internal/memsys"
	"pbtree/internal/storage"
)

var errDiskFull = errors.New("injected: disk full")

// fullFS is a MemFS whose file writes fail once *budget bytes have
// been written through it (a negative budget never runs out), while
// every other operation keeps working: a full disk, not a dead one.
type fullFS struct {
	*storage.MemFS
	budget *int
}

func (fs fullFS) Create(name string) (storage.File, error) {
	f, err := fs.MemFS.Create(name)
	if err != nil {
		return nil, err
	}
	return fullFile{f, fs.budget}, nil
}

type fullFile struct {
	storage.File
	budget *int
}

func (f fullFile) Write(p []byte) (int, error) {
	if *f.budget < 0 {
		return f.File.Write(p)
	}
	n, _ := f.File.Write(p[:min(len(p), *f.budget)])
	if *f.budget -= n; n < len(p) {
		return n, errDiskFull
	}
	return n, nil
}

// tmpFiles lists the *.tmp names of a directory.
func tmpFiles(t *testing.T, fs storage.FS, dir string) []string {
	t.Helper()
	names, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			tmps = append(tmps, n)
		}
	}
	return tmps
}

// TestCheckpointFailureRemovesTmp: a checkpoint that fails part way —
// at its first byte, inside the header, inside a later write of a
// multi-write stream — leaves no .tmp behind, however often it is
// retried under a new LSN, and the previous checkpoint still recovers.
func TestCheckpointFailureRemovesTmp(t *testing.T) {
	budget := -1
	fs := fullFS{storage.NewMemFS(), &budget}
	if err := fs.MkdirAll("shard"); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Width: 8, Prefetch: true, Mem: memsys.DefaultNative()}
	seed := seqPairs(50_000) // a 400 KB stream: two writes
	b := NewPBTree(cfg, 0.8, fs, "shard")
	if _, _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	b.Bootstrap(All(seed))
	if err := b.Seal(1); err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	put(t, b, 2, 3, 3)
	for lsn, n := range []int{0, 10, 300_000} {
		budget = n
		if err := b.Checkpoint(uint64(lsn + 2)); !errors.Is(err, errDiskFull) {
			t.Fatalf("checkpoint with %d bytes of room: err %v", n, err)
		}
		if tmps := tmpFiles(t, fs, "shard"); len(tmps) != 0 {
			t.Fatalf("checkpoint with %d bytes of room left %v", n, tmps)
		}
	}
	budget = -1
	r := NewPBTree(cfg, 0.8, fs, "shard")
	if lsn, had, err := r.Recover(); err != nil || !had || lsn != 1 {
		t.Fatalf("Recover = %d, %v, %v; want the checkpoint at 1", lsn, had, err)
	}
	if err := r.Seal(1); err != nil {
		t.Fatal(err)
	}
	s := r.Snapshot()
	defer s.Release()
	if got := s.AppendPairs(nil); len(got) != len(seed) || got[0] != seed[0] || got[len(got)-1] != seed[len(seed)-1] {
		t.Fatalf("recovered %d pairs, want the %d of the checkpoint", len(got), len(seed))
	}
}

// TestWriteAtomic: a successful write publishes the file whole and
// leaves no .tmp; a failing one publishes nothing and leaves no .tmp
// either, and the file it would have replaced is untouched.
func TestWriteAtomic(t *testing.T) {
	budget := -1
	fs := fullFS{storage.NewMemFS(), &budget}
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	if err := WriteAtomic(fs, "f", write("old")); err != nil {
		t.Fatal(err)
	}
	budget = 2
	if err := WriteAtomic(fs, "f", write("new")); !errors.Is(err, errDiskFull) {
		t.Fatalf("err %v, want the disk-full error", err)
	}
	if err := WriteAtomic(fs, "g", func(io.Writer) error { return io.ErrClosedPipe }); err != io.ErrClosedPipe {
		t.Fatalf("err %v, want the write function's error", err)
	}
	names, _ := fs.ReadDir("")
	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(f)
	if string(got) != "old" || len(names) != 1 {
		t.Fatalf("after failed writes: f = %q, directory %v", got, names)
	}
}
