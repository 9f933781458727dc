package memsys

import (
	"testing"
	"testing/quick"
)

// testConfig returns the paper's machine model with zero prefetch
// issue cost, which makes the Figure 2/3 arithmetic exact.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.PrefetchIssue = 0
	return cfg
}

func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{DefaultConfig(), DiskConfig(), DefaultConfig().WithBandwidth(5), DiskConfig().WithBandwidth(100)} {
		if err := c.Validate(); err != nil {
			t.Fatalf("shipped config %+v invalid: %v", c, err)
		}
	}
	bad := []func(*Config){
		func(c *Config) { c.LineSize = 48 },
		func(c *Config) { c.LineSize = 0 },
		func(c *Config) { c.LineSize = 1 },
		func(c *Config) { c.L1Size = 1000 },
		func(c *Config) { c.L1Size = 96 << 10 }, // 768 sets
		func(c *Config) { c.L2Size = 3 << 20 },  // 49 152 sets
		func(c *Config) { c.L2Size = 0 },
		func(c *Config) { c.L1Assoc = 0 },
		func(c *Config) { c.MemLatency = 0 },
		func(c *Config) { c.MemNext = 0 },
		func(c *Config) { c.MemNext = 200 },
		func(c *Config) { c.MissHandlers = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error, got nil", i)
		}
	}
}

func TestConfigBandwidth(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.Bandwidth(); got != 15 {
		t.Fatalf("default bandwidth = %v, want 15", got)
	}
	for _, b := range []int{5, 10, 15, 30} {
		c := cfg.WithBandwidth(b)
		if got := int(c.Bandwidth()); got != b {
			t.Errorf("WithBandwidth(%d) gives B=%d", b, got)
		}
	}
	if c := cfg.WithBandwidth(1000); c.MemNext != 1 {
		t.Errorf("extreme bandwidth should clamp Tnext to 1, got %d", c.MemNext)
	}
}

func TestCacheLRU(t *testing.T) {
	// 4 lines, 2-way: 2 sets. Lines map to sets by (addr/64)%2.
	c := newCache(256, 64, 2)
	a0, a2, a4 := uint64(0), uint64(128), uint64(256) // all set 0
	c.insert(a0)
	c.insert(a2)
	if !c.lookup(a0) || !c.lookup(a2) {
		t.Fatal("inserted lines missing")
	}
	// a0 was just promoted to MRU by lookup ordering: lookups above
	// left a2 MRU. Insert a4: evicts LRU (a0).
	c.lookup(a0) // make a0 MRU, a2 LRU
	c.insert(a4) // evicts a2
	if c.lookup(a2) {
		t.Error("LRU line a2 should have been evicted")
	}
	if !c.lookup(a0) || !c.lookup(a4) {
		t.Error("MRU lines should survive eviction")
	}
}

func TestCacheInsertExistingPromotes(t *testing.T) {
	c := newCache(256, 64, 2)
	c.insert(0)
	c.insert(128)
	c.insert(0)   // re-insert: promote, no duplicate
	c.insert(256) // evicts 128
	if c.lookup(128) {
		t.Error("128 should be evicted")
	}
	if got := c.lines(); got != 2 {
		t.Errorf("lines() = %d, want 2", got)
	}
}

func TestCacheFlush(t *testing.T) {
	c := newCache(256, 64, 2)
	c.insert(0)
	c.insert(64)
	c.flush()
	if c.lookup(0) || c.lookup(64) {
		t.Error("flush should empty the cache")
	}
	if c.lines() != 0 {
		t.Error("lines() should be 0 after flush")
	}
}

func TestDemandMissLatency(t *testing.T) {
	h := New(testConfig())
	h.Access(0)
	if h.Now() != 150 {
		t.Fatalf("cold miss took %d cycles, want 150", h.Now())
	}
	h.Access(32) // same line
	if h.Now() != 150 {
		t.Fatalf("L1 hit should be free, clock at %d", h.Now())
	}
	st := h.Stats()
	if st.L1Hits != 1 || st.MemMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestL2HitLatency(t *testing.T) {
	cfg := testConfig()
	h := New(cfg)
	h.Access(0) // install in L1+L2
	// Evict line 0 from L1 by touching enough conflicting lines.
	// L1: 64 KB 2-way, 512 sets: lines 0, 512*64, 1024*64 map to set 0.
	setStride := uint64(cfg.L1Size / cfg.L1Assoc)
	h.Access(setStride)
	h.Access(2 * setStride)
	before := h.Now()
	h.Access(0)
	if got := h.Now() - before; got != cfg.L2Latency {
		t.Fatalf("L2 hit took %d cycles, want %d", got, cfg.L2Latency)
	}
}

// TestFigure2a reproduces Figure 2(a): four serial misses (one per
// level of a one-line-node tree) cost 4 x 150 = 600 cycles.
func TestFigure2a(t *testing.T) {
	h := New(testConfig())
	for i := uint64(0); i < 4; i++ {
		h.Access(i * 4096)
	}
	if h.Now() != 600 {
		t.Fatalf("four serial misses took %d cycles, want 600", h.Now())
	}
}

// TestFigure2b reproduces Figure 2(b): three levels of two-line nodes
// without prefetching cost six serial misses = 900 cycles.
func TestFigure2b(t *testing.T) {
	h := New(testConfig())
	for node := uint64(0); node < 3; node++ {
		base := node * 4096
		h.Access(base)
		h.Access(base + 64)
	}
	if h.Now() != 900 {
		t.Fatalf("six serial misses took %d cycles, want 900", h.Now())
	}
}

// TestFigure2c reproduces Figure 2(c): three levels of two-line nodes
// with the second line prefetched in parallel cost 3 x 160 = 480.
func TestFigure2c(t *testing.T) {
	h := New(testConfig())
	for node := uint64(0); node < 3; node++ {
		base := node * 4096
		h.Prefetch(base)
		h.Prefetch(base + 64)
		h.Access(base)
		h.Access(base + 64)
	}
	if h.Now() != 480 {
		t.Fatalf("prefetched two-line nodes took %d cycles, want 480", h.Now())
	}
}

// TestFigure3c reproduces the steady-state of Figure 3(c): with
// prefetches issued far enough ahead, each additional leaf line costs
// only Tnext cycles.
func TestFigure3c(t *testing.T) {
	h := New(testConfig())
	const n = 12
	for i := uint64(0); i < n; i++ {
		h.Prefetch(i * 4096)
	}
	for i := uint64(0); i < n; i++ {
		h.Access(i * 4096)
	}
	want := uint64(150 + (n-1)*10)
	if h.Now() != want {
		t.Fatalf("pipelined scan took %d cycles, want %d", h.Now(), want)
	}
}

func TestPrefetchPartialHit(t *testing.T) {
	h := New(testConfig())
	h.Prefetch(0) // ready at 150
	h.Compute(60) // overlap some work
	h.Access(0)   // waits the remaining 90
	if h.Now() != 150 {
		t.Fatalf("clock at %d, want 150", h.Now())
	}
	st := h.Stats()
	if st.Busy != 60 || st.Stall != 90 || st.PFHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPrefetchFullyHidden(t *testing.T) {
	h := New(testConfig())
	h.Prefetch(0)
	h.Compute(200) // more than the miss latency
	before := h.Now()
	h.Access(0)
	if h.Now() != before {
		t.Fatal("fully hidden prefetch should cost zero stall")
	}
	if st := h.Stats(); st.Stall != 0 || st.PFHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPrefetchDuplicateIsCheap(t *testing.T) {
	h := New(testConfig())
	h.Prefetch(0)
	h.Prefetch(0) // duplicate: no second memory transfer
	h.Access(0)
	if st := h.Stats(); st.PFMem != 1 {
		t.Fatalf("duplicate prefetch issued %d memory transfers, want 1", st.PFMem)
	}
	if h.Now() != 150 {
		t.Fatalf("clock at %d, want 150", h.Now())
	}
}

func TestPrefetchOfCachedLine(t *testing.T) {
	h := New(testConfig())
	h.Access(0)
	before := h.Stats().PFMem
	h.Prefetch(0)
	h.Access(0)
	if h.Stats().PFMem != before {
		t.Error("prefetch of an L1-resident line must not touch memory")
	}
	if h.Now() != 150 {
		t.Fatalf("clock at %d, want 150", h.Now())
	}
}

func TestPrefetchFromL2(t *testing.T) {
	cfg := testConfig()
	h := New(cfg)
	h.Access(0)
	// Evict from L1 (see TestL2HitLatency).
	setStride := uint64(cfg.L1Size / cfg.L1Assoc)
	h.Access(setStride)
	h.Access(2 * setStride)
	h.Prefetch(0)
	h.Compute(cfg.L2Latency) // enough to hide the L2 fill
	before := h.Now()
	h.Access(0)
	if h.Now() != before {
		t.Fatal("L2 prefetch should be hidden by L2Latency cycles of work")
	}
}

func TestMissHandlerLimit(t *testing.T) {
	cfg := testConfig()
	cfg.MissHandlers = 4
	h := New(cfg)
	for i := uint64(0); i < 5; i++ {
		h.Prefetch(i * 4096)
	}
	// The fifth prefetch must wait for the first fill (ready at 150).
	if h.Now() != 150 {
		t.Fatalf("clock at %d after overflowing miss handlers, want 150", h.Now())
	}
	if st := h.Stats(); st.Stall != 150 {
		t.Fatalf("stall = %d, want 150", st.Stall)
	}
}

func TestBandwidthPipelining(t *testing.T) {
	h := New(testConfig())
	const n = 15
	for i := uint64(0); i < n; i++ {
		h.Prefetch(i * 4096)
	}
	h.Access((n - 1) * 4096)
	// Last of n pipelined transfers completes at T1 + (n-1)*Tnext.
	want := uint64(150 + (n-1)*10)
	if h.Now() != want {
		t.Fatalf("clock at %d, want %d", h.Now(), want)
	}
}

func TestFlushCaches(t *testing.T) {
	h := New(testConfig())
	h.Access(0)
	h.FlushCaches()
	if h.Contains(0) != 0 {
		t.Fatal("line survived flush")
	}
	before := h.Now()
	h.Access(0)
	if h.Now()-before != 150 {
		t.Fatal("access after flush should be a full miss")
	}
}

func TestFlushAbandonsInflight(t *testing.T) {
	h := New(testConfig())
	h.Prefetch(0)
	h.FlushCaches()
	before := h.Now()
	h.Access(0)
	// The transfer slot was consumed, so the demand miss pipelines
	// behind it, but the data itself was dropped.
	if h.Now() == before {
		t.Fatal("flushed prefetch should not satisfy a demand access")
	}
	if st := h.Stats(); st.PFHits != 0 {
		t.Fatalf("stats = %+v, want no prefetch hits", st)
	}
}

func TestResetStats(t *testing.T) {
	h := New(testConfig())
	h.Access(0)
	h.ResetStats()
	if st := h.Stats(); st != (Stats{}) {
		t.Fatalf("stats not zeroed: %+v", st)
	}
	if h.Contains(0) != 1 {
		t.Fatal("ResetStats must not flush caches")
	}
}

func TestStatsSubAndTotal(t *testing.T) {
	h := New(testConfig())
	h.Access(0)
	snap := h.Stats()
	h.Compute(10)
	h.Access(4096)
	d := h.Stats().Sub(snap)
	if d.Busy != 10 || d.MemMisses != 1 {
		t.Fatalf("interval stats = %+v", d)
	}
	if d.Total() != d.Busy+d.Stall {
		t.Fatal("Total mismatch")
	}
}

func TestAccessRangeSpansLines(t *testing.T) {
	h := New(testConfig())
	h.AccessRange(60, 8) // straddles lines 0 and 64
	if st := h.Stats(); st.MemMisses != 2 {
		t.Fatalf("misses = %d, want 2", st.MemMisses)
	}
	h.AccessRange(0, 0) // no-op
	h.PrefetchRange(0, 0)
	if st := h.Stats(); st.Prefetch != 0 {
		t.Fatal("zero-size prefetch range should issue nothing")
	}
}

func TestPrefetchRangeCoversLines(t *testing.T) {
	h := New(testConfig())
	h.PrefetchRange(0, 512) // 8 lines
	if st := h.Stats(); st.Prefetch != 8 || st.PFMem != 8 {
		t.Fatalf("stats = %+v, want 8 prefetches", st)
	}
}

func TestAddressSpaceAlignment(t *testing.T) {
	a := NewAddressSpace(64)
	p1 := a.Alloc(1)
	p2 := a.Alloc(64)
	p3 := a.Alloc(65)
	p4 := a.Alloc(1)
	if p1%64 != 0 || p2%64 != 0 || p3%64 != 0 || p4%64 != 0 {
		t.Fatal("allocations must be line aligned")
	}
	if p2-p1 != 64 || p3-p2 != 64 || p4-p3 != 128 {
		t.Fatalf("unexpected layout: %d %d %d %d", p1, p2, p3, p4)
	}
	if a.Used() != 64+64+128+64 {
		t.Fatalf("Used() = %d", a.Used())
	}
	if p1 == 0 {
		t.Fatal("zero address must never be allocated")
	}
}

func TestAddressSpacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc(0) should panic")
		}
	}()
	NewAddressSpace(64).Alloc(0)
}

// TestAccessIdempotentProperty checks, for arbitrary addresses, that a
// line is cached immediately after it is accessed and that a second
// access is free.
func TestAccessIdempotentProperty(t *testing.T) {
	h := New(testConfig())
	f := func(addr uint64) bool {
		addr %= 1 << 30
		h.Access(addr)
		if h.Contains(addr) != 1 {
			return false
		}
		before := h.Now()
		h.Access(addr)
		return h.Now() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestClockMonotonicProperty checks the simulated clock never moves
// backwards under random interleavings of operations.
func TestClockMonotonicProperty(t *testing.T) {
	h := New(testConfig())
	f := func(ops []uint16) bool {
		prev := h.Now()
		for _, op := range ops {
			addr := uint64(op) * 64
			switch op % 3 {
			case 0:
				h.Access(addr)
			case 1:
				h.Prefetch(addr)
			case 2:
				h.Compute(uint64(op % 7))
			}
			if h.Now() < prev {
				return false
			}
			prev = h.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestContainsDoesNotDisturbLRU(t *testing.T) {
	// A tiny L1: 64 B lines, 256 B 2-way => 2 sets of 2 ways. Lines 0,
	// 128 and 256 all map to set 0.
	cfg := testConfig()
	cfg.L1Size = 256
	cfg.L1Assoc = 2
	cfg.L2Size = 1024
	cfg.L2Assoc = 1
	h := New(cfg)

	h.Access(0)   // set 0: [0]
	h.Access(128) // set 0: [128, 0] (0 is LRU)
	if got := h.Contains(0); got != 1 {
		t.Fatalf("Contains(0) = %d, want 1", got)
	}
	// If Contains had promoted line 0 to MRU, this access would evict
	// line 128 instead of line 0 and perturb the simulated run.
	h.Access(256)
	if got := h.Contains(128); got != 1 {
		t.Errorf("Contains(128) = %d, want 1 (line 128 must survive: inspection must not promote)", got)
	}
	if got := h.Contains(0); got != 2 {
		t.Errorf("Contains(0) = %d, want 2 (line 0 was LRU and must be the one evicted)", got)
	}
}

func TestAccessRangeWraparoundTerminates(t *testing.T) {
	// Regression: a range whose end overflows uint64 used to loop
	// forever. It must clamp at the last representable line.
	h := New(testConfig())
	h.AccessRange(^uint64(0)-10, 1000)
	if got := h.Stats().MemMisses; got != 1 {
		t.Fatalf("wrapping AccessRange caused %d misses, want 1 (the last line)", got)
	}
}

func TestPrefetchRangeWraparoundTerminates(t *testing.T) {
	h := New(testConfig())
	h.PrefetchRange(^uint64(0)-10, 1000)
	if got := h.Stats().Prefetch; got != 1 {
		t.Fatalf("wrapping PrefetchRange issued %d prefetches, want 1 (the last line)", got)
	}
}
