// Package memsys simulates the memory hierarchy of a modern machine at
// the level of detail needed to study cache-conscious index structures:
// two levels of set-associative cache, a pipelined memory system that
// can overlap multiple outstanding misses, and software prefetch
// instructions.
//
// The default configuration models the Compaq ES40-based machine used
// in "Improving Index Performance through Prefetching" (Chen, Gibbons,
// Mowry; SIGMOD 2001): 64-byte cache lines, a 64 KB 2-way L1, a 2 MB
// direct-mapped L2, a 150-cycle full miss latency (T1), and one memory
// transfer completing every 10 cycles (Tnext), giving a normalized
// memory bandwidth of B = T1/Tnext = 15.
//
// Time is tracked on a simulated cycle clock. Clients charge
// computation with Compute, read or write simulated memory with Access,
// and issue non-blocking prefetches with Prefetch. The hierarchy
// records how many cycles were spent busy versus stalled on data cache
// misses, which is the paper's figure of merit ("exposed miss
// latency").
package memsys

import "fmt"

// Config describes a simulated memory hierarchy.
type Config struct {
	// LineSize is the cache line size in bytes. It must be a power of
	// two. Both cache levels use the same line size.
	LineSize int

	// L1Size and L1Assoc describe the first-level data cache
	// (capacity in bytes, associativity in ways).
	L1Size  int
	L1Assoc int // ways of associativity in L1

	// L2Size and L2Assoc describe the unified second-level cache.
	// L2Assoc == 1 models a direct-mapped cache.
	L2Size  int
	L2Assoc int // ways of associativity in L2

	// L2Latency is the cost in cycles of an L1 miss that hits in L2.
	L2Latency uint64

	// MemLatency is T1, the full latency in cycles of a miss serviced
	// by main memory.
	MemLatency uint64

	// MemNext is Tnext, the additional cycles until the next pipelined
	// memory transfer completes. MemLatency/MemNext is the normalized
	// memory bandwidth B: the number of misses that can be in flight
	// simultaneously.
	MemNext uint64

	// MissHandlers bounds the number of outstanding misses (demand or
	// prefetch) the processor supports. Issuing a prefetch while all
	// handlers are busy stalls the processor until one frees up.
	MissHandlers int

	// PrefetchIssue is the busy cost in cycles of executing one
	// prefetch instruction.
	PrefetchIssue uint64
}

// DefaultConfig returns the Compaq ES40-based parameters from Table 2
// of the paper.
func DefaultConfig() Config {
	return Config{
		LineSize:      64,
		L1Size:        64 << 10,
		L1Assoc:       2,
		L2Size:        2 << 20,
		L2Assoc:       1,
		L2Latency:     15,
		MemLatency:    150,
		MemNext:       10,
		MissHandlers:  32,
		PrefetchIssue: 1,
	}
}

// DiskConfig returns a configuration that models a disk-resident
// database instead of a main-memory one (section 5 of the paper: the
// same prefetching techniques apply with pages in place of cache
// lines and disk latency in place of memory latency):
//
//   - a "line" is a 4 KB page;
//   - the first level is a 16 MB buffer pool, the second a 256 MB
//     main-memory page cache;
//   - a page miss to disk costs 5M cycles (5 ms at 1 GHz), but with
//     command queuing the disk completes another sequential page
//     transfer every 150K cycles, so B = T1/Tnext = 33.
func DiskConfig() Config {
	return Config{
		LineSize:      4096,
		L1Size:        16 << 20,
		L1Assoc:       8,
		L2Size:        256 << 20,
		L2Assoc:       4,
		L2Latency:     1000,
		MemLatency:    5_000_000,
		MemNext:       150_000,
		MissHandlers:  32,
		PrefetchIssue: 50, // issuing an async read costs some work
	}
}

// WithBandwidth returns a copy of c with Tnext adjusted so the
// normalized bandwidth MemLatency/MemNext equals b. It is used by the
// sensitivity experiments that sweep B while holding T1 fixed.
func (c Config) WithBandwidth(b int) Config {
	if b <= 0 {
		panic("memsys: bandwidth must be positive")
	}
	c.MemNext = c.MemLatency / uint64(b)
	if c.MemNext == 0 {
		c.MemNext = 1
	}
	return c
}

// Bandwidth reports the normalized memory bandwidth B = T1/Tnext.
func (c Config) Bandwidth() float64 {
	return float64(c.MemLatency) / float64(c.MemNext)
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.LineSize < 2 || c.LineSize&(c.LineSize-1) != 0:
		// The caches keep a flush generation in a tag's offset bits.
		return fmt.Errorf("memsys: line size %d is not a power of two of at least 2", c.LineSize)
	case c.L1Assoc <= 0 || c.L2Assoc <= 0:
		return fmt.Errorf("memsys: associativity must be positive")
	case !powerOfTwoSets(c.L1Size, c.LineSize*c.L1Assoc) || !powerOfTwoSets(c.L2Size, c.LineSize*c.L2Assoc):
		return fmt.Errorf("memsys: L1 size %d or L2 size %d is not a power-of-two number of sets of line size x assoc", c.L1Size, c.L2Size)
	case c.MemLatency == 0 || c.MemNext == 0:
		return fmt.Errorf("memsys: memory latencies must be positive")
	case c.MemNext > c.MemLatency:
		return fmt.Errorf("memsys: Tnext (%d) must not exceed T1 (%d)", c.MemNext, c.MemLatency)
	case c.MissHandlers <= 0:
		return fmt.Errorf("memsys: need at least one miss handler")
	}
	return nil
}

// powerOfTwoSets reports whether size bytes are a power-of-two number
// of sets of setBytes each, so a cache indexes its sets by mask.
func powerOfTwoSets(size, setBytes int) bool {
	n := size / setBytes
	return size > 0 && size%setBytes == 0 && n&(n-1) == 0
}
