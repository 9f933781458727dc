package lsm

import (
	"errors"
	"strings"
	"testing"

	"pbtree/internal/backend"
	"pbtree/internal/storage"
)

var errDiskFull = errors.New("injected: disk full")

// fullFS fails every file write once full is set, while every other
// operation keeps working: a full disk, not a dead one.
type fullFS struct {
	*storage.MemFS
	full *bool
}

func (fs fullFS) Create(name string) (storage.File, error) {
	f, err := fs.MemFS.Create(name)
	if err != nil {
		return nil, err
	}
	return fullFile{f, fs.full}, nil
}

type fullFile struct {
	storage.File
	full *bool
}

func (f fullFile) Write(p []byte) (int, error) {
	if *f.full {
		return 0, errDiskFull
	}
	return f.File.Write(p)
}

// TestLSMFlushFailureRemovesTmp: a run flush that fails on a full disk
// leaves no .tmp behind, however often it is retried under a new LSN,
// and the runs before it still recover.
func TestLSMFlushFailureRemovesTmp(t *testing.T) {
	full := false
	fs := fullFS{storage.NewMemFS(), &full}
	fs.MkdirAll("shard")
	cfg, _ := Config{FlushKeys: 1 << 10, MaxRuns: 3}.WithDefaults()
	b := New(cfg, fs, "shard")
	if _, _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	b.Bootstrap(backend.All(pairs(10, 20, 30)))
	b.Seal(1)
	if err := b.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	full = true
	for lsn := uint64(1); lsn <= 3; lsn++ {
		apply(t, b, lsn+1, lsn, backend.Write{Puts: pairs(100 + int(lsn))})
		if err := b.Checkpoint(lsn); !errors.Is(err, errDiskFull) {
			t.Fatalf("checkpoint %d on a full disk: err %v", lsn, err)
		}
		names, _ := fs.ReadDir("shard")
		for _, n := range names {
			if strings.HasSuffix(n, ".tmp") {
				t.Fatalf("checkpoint %d on a full disk left %s", lsn, n)
			}
		}
	}
	full = false
	r, last, had := reopen(t, cfg, fs, "shard")
	if got := r.Snapshot().AppendPairs(nil); !had || last != 0 || len(got) != 3 {
		t.Fatalf("recovered %v at LSN %d (had %v), want the bootstrap run's 3 pairs at 0", got, last, had)
	}
}
