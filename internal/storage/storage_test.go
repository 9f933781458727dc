package storage

import (
	"errors"
	"testing"
	"time"
)

// journal drives one MemFS through every kind of journal entry. Its
// crash points, in order: mkdir d (1), create d/a (2), "abc" (3..5),
// sync d/a (6), "de" (7..8), create d/b (9), "xy" (10..11), rename
// d/b to d/c (12), truncate d/a to 1 byte (13), remove d/c (14).
func journal(t *testing.T) *MemFS {
	t.Helper()
	fs := NewMemFS()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fs.MkdirAll("d"))
	a, err := fs.Create("d/a")
	must(err)
	_, err = a.Write([]byte("abc"))
	must(err)
	must(a.Sync())
	_, err = a.Write([]byte("de"))
	must(err)
	b, err := fs.Create("d/b")
	must(err)
	_, err = b.Write([]byte("xy"))
	must(err)
	must(fs.Rename("d/b", "d/c"))
	must(fs.Truncate("d/a", 1))
	must(fs.Remove("d/c"))
	if got := fs.CrashPoints(); got != 14 {
		t.Fatalf("journal holds %d crash points, want 14", got)
	}
	return fs
}

// contents reads every file of dir d, or nil when d does not exist.
func contents(t *testing.T, fs *MemFS) map[string]string {
	t.Helper()
	names, err := fs.ReadDir("d")
	if err != nil {
		return nil
	}
	out := map[string]string{}
	for _, n := range names {
		b, err := fs.ReadFile("d/" + n)
		if err != nil {
			t.Fatal(err)
		}
		out[n] = string(b)
	}
	return out
}

func sameFiles(a, b map[string]string) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// TestCrashAtKeepsJournalPrefix: a crash at point p leaves exactly the
// first p journal units — a byte of a write and a metadata operation
// each count one — and, with loseUnsynced, every file cut to the
// length its last sync covered.
func TestCrashAtKeepsJournalPrefix(t *testing.T) {
	fs := journal(t)
	for p, want := range []struct{ through, synced map[string]string }{
		0:  {nil, nil},
		1:  {map[string]string{}, map[string]string{}},
		2:  {map[string]string{"a": ""}, map[string]string{"a": ""}},
		3:  {map[string]string{"a": "a"}, map[string]string{"a": ""}},
		4:  {map[string]string{"a": "ab"}, map[string]string{"a": ""}},
		5:  {map[string]string{"a": "abc"}, map[string]string{"a": ""}},
		6:  {map[string]string{"a": "abc"}, map[string]string{"a": "abc"}},
		7:  {map[string]string{"a": "abcd"}, map[string]string{"a": "abc"}},
		8:  {map[string]string{"a": "abcde"}, map[string]string{"a": "abc"}},
		9:  {map[string]string{"a": "abcde", "b": ""}, map[string]string{"a": "abc", "b": ""}},
		10: {map[string]string{"a": "abcde", "b": "x"}, map[string]string{"a": "abc", "b": ""}},
		11: {map[string]string{"a": "abcde", "b": "xy"}, map[string]string{"a": "abc", "b": ""}},
		12: {map[string]string{"a": "abcde", "c": "xy"}, map[string]string{"a": "abc", "c": ""}},
		13: {map[string]string{"a": "a", "c": "xy"}, map[string]string{"a": "a", "c": ""}},
		14: {map[string]string{"a": "a"}, map[string]string{"a": "a"}},
	} {
		if got := contents(t, fs.CrashAt(int64(p), false)); !sameFiles(got, want.through) {
			t.Errorf("CrashAt(%d, false) = %v, want %v", p, got, want.through)
		}
		if got := contents(t, fs.CrashAt(int64(p), true)); !sameFiles(got, want.synced) {
			t.Errorf("CrashAt(%d, true) = %v, want %v", p, got, want.synced)
		}
	}
	// The replay has a journal of its own, and the source is unchanged.
	if c := fs.CrashAt(8, false); c.CrashPoints() != 0 {
		t.Errorf("replayed FS journals %d points, want 0", c.CrashPoints())
	}
	if got := contents(t, fs); !sameFiles(got, map[string]string{"a": "a"}) {
		t.Errorf("live FS after replays = %v", got)
	}
}

// TestRenameAtomicAcrossCrashes: the tmp + sync + rename publication
// leaves the old contents or the new ones at every crash point, with
// or without the volatile cache — never a torn or missing file.
func TestRenameAtomicAcrossCrashes(t *testing.T) {
	fs := NewMemFS()
	put := func(name, data string) {
		t.Helper()
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(data)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	put("f", "old contents")
	start := fs.CrashPoints()
	put("f.tmp", "new contents, longer")
	if err := fs.Rename("f.tmp", "f"); err != nil {
		t.Fatal(err)
	}
	end := fs.CrashPoints()
	for p := start; p <= end; p++ {
		for _, lose := range []bool{false, true} {
			b, err := fs.CrashAt(p, lose).ReadFile("f")
			want := "old contents"
			if p == end {
				want = "new contents, longer"
			}
			if err != nil || string(b) != want {
				t.Fatalf("CrashAt(%d, %v): f = %q, %v; want %q", p, lose, b, err, want)
			}
		}
	}
}

// TestWriteBudget: an armed budget delivers a short write, or none,
// and then fails every later operation; a negative budget disarms.
func TestWriteBudget(t *testing.T) {
	for _, short := range []bool{true, false} {
		fs := NewMemFS()
		f, err := fs.Create("x")
		if err != nil {
			t.Fatal(err)
		}
		fs.SetWriteBudget(5, short)
		if n, err := f.Write([]byte("abc")); n != 3 || err != nil {
			t.Fatalf("short=%v: write inside the budget: %d, %v", short, n, err)
		}
		want := 2
		if !short {
			want = 0
		}
		if n, err := f.Write([]byte("defgh")); n != want || !errors.Is(err, ErrInjected) {
			t.Fatalf("short=%v: write past the budget: %d, %v; want %d and ErrInjected", short, n, err, want)
		}
		if b, _ := fs.ReadFile("x"); string(b) != "abcde"[:3+want] {
			t.Fatalf("short=%v: contents %q", short, b)
		}
		for op, err := range map[string]error{
			"write":    func() error { _, err := f.Write([]byte("z")); return err }(),
			"sync":     f.Sync(),
			"create":   func() error { _, err := fs.Create("y"); return err }(),
			"open":     func() error { _, err := fs.Open("x"); return err }(),
			"readdir":  func() error { _, err := fs.ReadDir("."); return err }(),
			"mkdir":    fs.MkdirAll("d"),
			"rename":   fs.Rename("x", "z"),
			"remove":   fs.Remove("x"),
			"truncate": fs.Truncate("x", 0),
		} {
			if !errors.Is(err, ErrInjected) {
				t.Errorf("short=%v: %s after the failure: %v, want ErrInjected", short, op, err)
			}
		}
		fs.SetWriteBudget(-1, false)
		if _, err := f.Write([]byte("z")); err != nil {
			t.Fatalf("short=%v: write after disarming: %v", short, err)
		}
	}
}

// TestFaultPlanDeterministic: a schedule decides by step number alone,
// so two plans with the same schedule judge the same sequence, and a
// partition drops every operation until it heals.
func TestFaultPlanDeterministic(t *testing.T) {
	type verdict struct {
		drop  bool
		delay time.Duration
	}
	run := func(p *FaultPlan, n int) []verdict {
		out := make([]verdict, n)
		for i := range out {
			out[i].drop, out[i].delay = p.Next()
		}
		return out
	}
	schedule := func() *FaultPlan { return &FaultPlan{DropEvery: 3, DelayEvery: 4, Delay: time.Millisecond} }
	a, b := run(schedule(), 24), run(schedule(), 24)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: %+v vs %+v under the same schedule", i, a[i], b[i])
		}
		want := verdict{drop: i%3 == 2}
		if i%4 == 3 {
			want.delay = time.Millisecond
		}
		if a[i] != want {
			t.Fatalf("step %d judged %+v, want %+v", i, a[i], want)
		}
	}

	p := schedule()
	p.SetPartitioned(true)
	if !p.Partitioned() {
		t.Fatal("partition not reported open")
	}
	for i, v := range run(p, 6) {
		if !v.drop {
			t.Fatalf("step %d passed an open partition", i)
		}
		if (v.delay != 0) != (i%4 == 3) {
			t.Fatalf("step %d delay %v inside the partition, want the schedule's", i, v.delay)
		}
	}
	p.SetPartitioned(false)
	for i, v := range run(p, 6) { // steps 6..11
		if v.drop != ((6+i)%3 == 2) {
			t.Fatalf("step %d after healing judged %+v, want the schedule back", 6+i, v)
		}
	}
	if p.Steps() != 12 {
		t.Fatalf("plan judged %d steps, want 12", p.Steps())
	}
	if v := run(&FaultPlan{}, 10); v[9] != (verdict{}) {
		t.Fatalf("zero plan injected %+v", v[9])
	}
}
