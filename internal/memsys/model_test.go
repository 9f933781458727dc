package memsys

import (
	"runtime"
	"sync"
	"testing"
)

func TestNativeIsZeroCostNoOp(t *testing.T) {
	n := NewNative(DefaultConfig())
	n.Access(0)
	n.Prefetch(64)
	n.AccessRange(0, 1024)
	n.PrefetchRange(0, 1024)
	n.Compute(100)
	n.FlushCaches()
	if got := n.Now(); got != 0 {
		t.Fatalf("native Now() = %d, want 0 (no clock)", got)
	}
	if got := n.Stats(); got != (Stats{}) {
		t.Fatalf("native Stats() = %+v, want zero", got)
	}
}

// TestNativeConcurrentCharges exercises one native model from many
// goroutines; run with -race to verify the concurrency claim.
func TestNativeConcurrentCharges(t *testing.T) {
	n := NewNative(DefaultConfig())
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				n.Access(base + uint64(i*64))
				n.Prefetch(base + uint64(i*64))
				n.Compute(1)
				n.AccessRange(base, 128)
				n.ResetStats()
			}
		}(uint64(w) << 32)
	}
	wg.Wait()
	if got := n.Stats(); got != (Stats{}) {
		t.Fatalf("concurrent native Stats() = %+v, want zero", got)
	}
}

func TestNativeInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewNative with invalid config did not panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.LineSize = 48
	NewNative(cfg)
}

func TestIsNil(t *testing.T) {
	var h *Hierarchy
	var n *Native
	cases := []struct {
		m    Model
		want bool
	}{
		{nil, true},
		{h, true},
		{n, true},
		{Default(), false},
		{DefaultNative(), false},
	}
	for i, c := range cases {
		if got := IsNil(c.m); got != c.want {
			t.Errorf("case %d: IsNil = %v, want %v", i, got, c.want)
		}
	}
}

// TestAddressSpaceConcurrentAlloc verifies the bump allocator hands
// out disjoint regions under concurrency (run with -race).
func TestAddressSpaceConcurrentAlloc(t *testing.T) {
	a := NewAddressSpace(64)
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 500
	addrs := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				addrs[w] = append(addrs[w], a.Alloc(100))
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, ws := range addrs {
		for _, addr := range ws {
			if addr%64 != 0 {
				t.Fatalf("address %d not line-aligned", addr)
			}
			if seen[addr] {
				t.Fatalf("address %d handed out twice", addr)
			}
			seen[addr] = true
		}
	}
	if want := uint64(workers * perWorker * 128); a.Used() != want {
		t.Fatalf("Used() = %d, want %d", a.Used(), want)
	}
}
