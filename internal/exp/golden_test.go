package exp

import (
	"bytes"
	"os"
	"testing"

	"pbtree/internal/core"
	"pbtree/internal/memsys"
)

// goldenFastSubset is the set of experiments cheap enough to regenerate
// on every test run (~2s total at scale 0.1). The remaining ids are
// covered by the full regeneration (make golden-all, which sets
// PBTREE_GOLDEN_ALL).
var goldenFastSubset = []string{
	"fig1", "fig2", "fig3", "tab3", "fig13", "fig17",
	"extdisk", "extablation", "attr", "mget",
}

// TestGoldenFiguresScale01 regenerates a subset of the paper figures
// and requires their rendered tables to appear byte-identically, in
// registry order, in the committed results_scale0.1.txt. The simulator
// is deterministic for a given seed, so any diff is a behavior change
// in the simulated memory hierarchy or the index structures — exactly
// what must not happen as a side effect of serving-layer work. Set
// PBTREE_GOLDEN_ALL=1 (make golden-all) to check every experiment
// against the whole file: 46-63 s wall on a 2-vCPU Xeon @ 2.10 GHz.
func TestGoldenFiguresScale01(t *testing.T) {
	golden, err := os.ReadFile("../../results_scale0.1.txt")
	if err != nil {
		t.Fatal(err)
	}
	ids := goldenFastSubset
	all := os.Getenv("PBTREE_GOLDEN_ALL") != ""
	if all {
		ids = nil
		for _, e := range Experiments() {
			ids = append(ids, e.ID)
		}
	}
	opts := DefaultOptions() // scale 0.1, seed 1: what generated the file
	var full bytes.Buffer
	pos := 0
	for _, id := range ids {
		tables, err := Run(id, opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		for _, tb := range tables {
			tb.Fprint(&buf)
		}
		full.Write(buf.Bytes())
		idx := bytes.Index(golden[pos:], buf.Bytes())
		if idx < 0 {
			t.Errorf("%s: regenerated tables do not appear (in order) in results_scale0.1.txt;\nregenerated:\n%s", id, truncateFor(t, buf.Bytes()))
			continue
		}
		pos += idx + buf.Len()
	}
	if all && !t.Failed() && full.Len() != len(golden) {
		t.Errorf("full regeneration is %d bytes, golden file is %d", full.Len(), len(golden))
	}
}

// TestGoldenUnaffectedByHardwarePrefetch pins the separation of the
// two paths: the hardware prefetch stubs are compiled into this test
// binary, and this test actively exercises them (native trees
// bulkloading, searching and scanning, issuing real PREFETCHT0/PRFM
// where the build has a stub) in between two regenerations of a
// simulated figure. Both regenerations must be byte-identical to each
// other and to the committed golden — real prefetch instructions are
// invisible to the simulated hierarchy.
func TestGoldenUnaffectedByHardwarePrefetch(t *testing.T) {
	golden, err := os.ReadFile("../../results_scale0.1.txt")
	if err != nil {
		t.Fatal(err)
	}
	render := func() []byte {
		tables, err := Run("fig2", DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, tb := range tables {
			tb.Fprint(&buf)
		}
		return buf.Bytes()
	}

	before := render()
	pairs := make([]core.Pair, 10000)
	for i := range pairs {
		pairs[i] = core.Pair{Key: core.Key(2 * i), TID: core.TID(i)}
	}
	for _, width := range []int{1, 8} {
		tr := core.MustNew(core.Config{Width: width, Prefetch: true, Mem: memsys.DefaultNative()})
		if err := tr.Bulkload(pairs, 0.8); err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			if tid, ok := tr.Search(p.Key); !ok || tid != p.TID {
				t.Fatalf("%s: native Search(%d) = %d,%v", tr.Name(), p.Key, tid, ok)
			}
		}
		if n := tr.Scan(0, len(pairs)); n != len(pairs) {
			t.Fatalf("%s: native scan returned %d rows, want %d", tr.Name(), n, len(pairs))
		}
	}
	after := render()

	if !bytes.Equal(before, after) {
		t.Errorf("fig2 output changed across a hardware-prefetch native run")
	}
	if !bytes.Contains(golden, before) {
		t.Errorf("fig2 output not byte-identical to results_scale0.1.txt;\nregenerated:\n%s", truncateFor(t, before))
	}
}

// truncateFor bounds a failure dump to something readable.
func truncateFor(t *testing.T, b []byte) []byte {
	t.Helper()
	if len(b) > 2048 {
		return append(append([]byte(nil), b[:2048]...), []byte("... (truncated)")...)
	}
	return b
}
