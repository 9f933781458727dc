package core

import (
	"bytes"
	"strings"
	"testing"

	"pbtree/internal/memsys"
)

// TestLayoutCountsMatchPaper pins the node capacities of section 4.1.2.
func TestLayoutCountsMatchPaper(t *testing.T) {
	cases := []struct {
		cfg                Config
		leafKeys, nlKeys   int
		bottomKeys         int
		leafSize, hintWant int // hintWant: -1 means no hint
	}{
		{Config{Width: 1}, 7, 7, 7, 64, -1},
		{Config{Width: 2, Prefetch: true}, 15, 15, 15, 128, -1},
		{Config{Width: 8, Prefetch: true}, 63, 63, 63, 512, -1},
		{Config{Width: 8, Prefetch: true, JumpArray: JumpExternal}, 62, 63, 63, 512, 4},
		{Config{Width: 8, Prefetch: true, JumpArray: JumpInternal}, 63, 63, 62, 512, -1},
		{Config{Width: 16, Prefetch: true}, 127, 127, 127, 1024, -1},
	}
	for _, c := range cases {
		cfg, err := c.cfg.withDefaults()
		if err != nil {
			t.Fatalf("%v: %v", c.cfg, err)
		}
		leaf, nl, bottom := layoutsFor(cfg, 64)
		if leaf.maxKeys != c.leafKeys {
			t.Errorf("%s: leaf keys = %d, want %d", cfg.name(), leaf.maxKeys, c.leafKeys)
		}
		if nl.maxKeys != c.nlKeys {
			t.Errorf("%s: non-leaf keys = %d, want %d", cfg.name(), nl.maxKeys, c.nlKeys)
		}
		if bottom.maxKeys != c.bottomKeys {
			t.Errorf("%s: bottom keys = %d, want %d", cfg.name(), bottom.maxKeys, c.bottomKeys)
		}
		if leaf.size != c.leafSize {
			t.Errorf("%s: leaf size = %d, want %d", cfg.name(), leaf.size, c.leafSize)
		}
		if leaf.hintOff != c.hintWant {
			t.Errorf("%s: hint offset = %d, want %d", cfg.name(), leaf.hintOff, c.hintWant)
		}
		// Keys must precede pointers (the layout optimization), and
		// every field must fit in the node.
		if leaf.keyOff >= leaf.ptrOff || nl.keyOff >= nl.ptrOff {
			t.Errorf("%s: keys must precede pointers", cfg.name())
		}
		if leaf.nextOff != leaf.size-fieldSize {
			t.Errorf("%s: leaf next pointer not at end of node", cfg.name())
		}
		lastTID := leaf.ptrOff + leaf.maxKeys*fieldSize
		if lastTID > leaf.nextOff {
			t.Errorf("%s: tupleIDs overlap the next pointer", cfg.name())
		}
		lastChild := nl.ptrOff + (nl.maxKeys+1)*fieldSize
		if lastChild > nl.size {
			t.Errorf("%s: child pointers overflow the node", cfg.name())
		}
		if bottom.nextOff >= 0 {
			lastChild := bottom.ptrOff + (bottom.maxKeys+1)*fieldSize
			if lastChild > bottom.nextOff {
				t.Errorf("%s: bottom child pointers overlap next", cfg.name())
			}
		}
	}
}

// TestBlockWordMap pins the word of a real block each field lands in
// (byte offset / fieldSize) — the table in DESIGN.md §5.
func TestBlockWordMap(t *testing.T) {
	type words struct{ keys, ptrs, next, hint int }
	at := func(l layout) words {
		return words{l.keyOff / fieldSize, l.ptrOff / fieldSize, l.nextOff / fieldSize, l.hintOff / fieldSize}
	}
	cases := []struct {
		cfg                    Config
		leaf, nl, bottom       words
		leafPtrs, nlPtrs       int
		bottomKeys, bottomPtrs int
	}{
		{Config{Width: 1}, words{1, 8, 15, 0}, words{1, 8, 0, 0}, words{1, 8, 0, 0}, 7, 8, 7, 8},
		{Config{Width: 8, Prefetch: true}, words{1, 64, 127, 0}, words{1, 64, 0, 0}, words{1, 64, 0, 0}, 63, 64, 63, 64},
		{Config{Width: 8, Prefetch: true, JumpArray: JumpExternal}, words{2, 64, 127, 1}, words{1, 64, 0, 0}, words{1, 64, 0, 0}, 62, 64, 63, 64},
		{Config{Width: 8, Prefetch: true, JumpArray: JumpInternal}, words{1, 64, 127, 0}, words{1, 64, 0, 0}, words{1, 63, 127, 0}, 63, 64, 62, 63},
	}
	for _, c := range cases {
		cfg, err := c.cfg.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		leaf, nl, bottom := layoutsFor(cfg, 64)
		if at(leaf) != c.leaf || at(nl) != c.nl || at(bottom) != c.bottom {
			t.Errorf("%s: words leaf %+v non-leaf %+v bottom %+v, want %+v %+v %+v",
				cfg.name(), at(leaf), at(nl), at(bottom), c.leaf, c.nl, c.bottom)
		}
		if leaf.maxPtrs != c.leafPtrs || nl.maxPtrs != c.nlPtrs || bottom.maxKeys != c.bottomKeys || bottom.maxPtrs != c.bottomPtrs {
			t.Errorf("%s: leaf holds %d tupleIDs, non-leaf %d children, bottom %d keys + %d children",
				cfg.name(), leaf.maxPtrs, nl.maxPtrs, bottom.maxKeys, bottom.maxPtrs)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg, err := Config{Width: 8, Prefetch: true, JumpArray: JumpExternal}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	// B = 15, w = 8: k = ceil(15/8) + 1 = 3 (the paper's choice).
	if cfg.PrefetchDist != 3 {
		t.Errorf("default prefetch distance = %d, want 3", cfg.PrefetchDist)
	}
	if cfg.ChunkLines != 8 {
		t.Errorf("default chunk lines = %d, want 8", cfg.ChunkLines)
	}
	if cfg.Cost != DefaultCostModel() {
		t.Errorf("cost model not defaulted")
	}
	if cfg.Mem == nil {
		t.Errorf("hierarchy not defaulted")
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := New(Config{Width: -1}); err == nil {
		t.Error("negative width accepted")
	}
	if _, err := New(Config{Width: 8, JumpArray: JumpExternal}); err == nil {
		t.Error("jump array without prefetch accepted")
	}
	if _, err := New(Config{Width: 1, Prefetch: true, PrefetchDist: -1}); err == nil {
		t.Error("negative prefetch distance accepted")
	}
	if _, err := New(Config{Width: 8, Prefetch: true, JumpArray: JumpExternal, ChunkLines: -2}); err == nil {
		t.Error("negative chunk size accepted")
	}
	// A native node is at least 16 words: its key count reads 8-key runs.
	small := memsys.DefaultConfig()
	small.LineSize = 32
	if _, err := New(Config{Width: 1, Mem: memsys.NewNative(small)}); err == nil {
		t.Error("an 8-word native node accepted")
	}
	if _, err := New(Config{Width: 2, Mem: memsys.NewNative(small)}); err != nil {
		t.Errorf("a 16-word native node refused: %v", err)
	}
	// A native tree keeps no jump-pointer array, however it is made.
	for _, kind := range []JumpArrayKind{JumpExternal, JumpInternal} {
		cfg := Config{Width: 8, Prefetch: true, JumpArray: kind, Mem: memsys.DefaultNative()}
		_, want := New(cfg)
		if want == nil || !strings.Contains(want.Error(), "jump-pointer array") {
			t.Errorf("New of a native %s tree: err = %v", cfg.name(), want)
			continue
		}
		cfg.Mem = memsys.Default()
		sim := MustNew(cfg)
		if err := sim.Bulkload(sortedPairs(100), 1); err != nil {
			t.Fatal(err)
		}
		var stream bytes.Buffer
		if _, err := sim.WriteTo(&stream); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&stream, memsys.DefaultNative(), 1); err == nil || err.Error() != want.Error() {
			t.Errorf("Load of a %s stream onto a native model: err = %v, want %v", cfg.name(), err, want)
		}
	}
}

func TestVariantNames(t *testing.T) {
	cases := map[string]Config{
		"B+":    {Width: 1},
		"p8B+":  {Width: 8, Prefetch: true},
		"p8eB+": {Width: 8, Prefetch: true, JumpArray: JumpExternal},
		"p8iB+": {Width: 8, Prefetch: true, JumpArray: JumpInternal},
		"p2B+":  {Width: 2, Prefetch: true},
	}
	for want, cfg := range cases {
		if got := MustNew(cfg).Name(); got != want {
			t.Errorf("name = %q, want %q", got, want)
		}
	}
}

// TestChunkCapacityMatchesPaper pins the 126 leaf-pointer fields of an
// 8-line chunk (section 4.1.2).
func TestChunkCapacityMatchesPaper(t *testing.T) {
	tr := MustNew(Config{Width: 8, Prefetch: true, JumpArray: JumpExternal})
	if tr.jpCap != 126 {
		t.Fatalf("chunk capacity = %d, want 126", tr.jpCap)
	}
	if tr.chunkBytes() != 512 {
		t.Fatalf("chunk bytes = %d, want 512", tr.chunkBytes())
	}
}

func TestJumpArrayKindString(t *testing.T) {
	if JumpNone.String() != "none" || JumpExternal.String() != "external" ||
		JumpInternal.String() != "internal" {
		t.Error("JumpArrayKind.String mismatch")
	}
	if JumpArrayKind(9).String() == "" {
		t.Error("unknown kind should still print")
	}
}

// newTestTree builds a tree with a private hierarchy so tests do not
// interfere with each other.
func newTestTree(tb testing.TB, cfg Config) *Tree {
	tb.Helper()
	if cfg.Mem == nil {
		cfg.Mem = memsys.Default()
	}
	tr, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// variant is one tree configuration of the correctness tests, with the
// subtest name it runs under.
type variant struct {
	Config
	label string
}

// testVariants are the tree configurations exercised by the
// correctness tests: every layout on the simulated hierarchy (the
// paper's search, modeled prefetches, sibling links) and again on the
// native model (branchless search, real prefetch instructions, no
// links). A native tree keeps no jump-pointer array, so the native
// twin of a p^w_e or p^w_i layout is the link-free tree of the same
// width, which scans through its bottom non-leaf nodes; it runs under
// the layout's name (go test suffixes the repeat with #01). Each
// Config gets a private model.
func testVariants() []variant {
	layouts := []Config{
		{Width: 1},                 // plain B+
		{Width: 1, Prefetch: true}, // degenerate p1
		{Width: 2, Prefetch: true},
		{Width: 4, Prefetch: true},
		{Width: 8, Prefetch: true},
		{Width: 16, Prefetch: true},
		{Width: 8, Prefetch: true, JumpArray: JumpExternal},
		{Width: 8, Prefetch: true, JumpArray: JumpInternal},
		{Width: 2, Prefetch: true, JumpArray: JumpExternal, ChunkLines: 1},
		{Width: 2, Prefetch: true, JumpArray: JumpInternal},
		{Width: 8}, // wide without prefetch (the Figure 2(b) ablation)
		{Width: 8, Prefetch: true, Ablation: Ablation{NoBufferPrefetch: true}},
	}
	out := make([]variant, 0, 2*len(layouts))
	for _, cfg := range layouts {
		cfg.Mem = memsys.Default()
		out = append(out, variant{cfg, cfg.name()})
	}
	for _, cfg := range layouts {
		name := cfg.name()
		cfg.Mem, cfg.JumpArray = memsys.DefaultNative(), JumpNone
		out = append(out, variant{cfg, name})
	}
	return out
}
