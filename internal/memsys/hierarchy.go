package memsys

import "math/bits"

// inflightLine records an outstanding fill started by a prefetch.
type inflightLine struct {
	line  uint64
	ready uint64 // cycle at which the line arrives in L1
}

// Hierarchy is a simulated two-level cache hierarchy in front of a
// pipelined main memory. It is not safe for concurrent use; each
// simulation owns one Hierarchy.
type Hierarchy struct {
	cfg       Config
	lineMask  uint64
	lineShift uint // log2 of the line size

	now     uint64 // simulated cycle clock
	memFree uint64 // completion cycle of the most recent memory transfer

	l1, l2 *cache
	// inflight holds the outstanding prefetch fills (at most
	// MissHandlers) in issue order, the order collect installs them in,
	// which is part of the LRU state. nextReady is at most the earliest
	// of their ready cycles (^0 when none), and inMask has at least bit
	// (line>>lineShift)&63 set for each of their lines, so an access
	// that nothing in flight can satisfy skips both scans. A prefetch
	// hit leaves both as they are; collect makes them exact again.
	inflight  []inflightLine
	nextReady uint64
	inMask    uint64

	stats Stats
	probe Probe // optional observer, nil when detached (see probe.go)
}

// New creates a Hierarchy with the given configuration. It panics if
// the configuration is invalid, since that is always a programming
// error in this codebase.
func New(cfg Config) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Hierarchy{
		cfg:       cfg,
		lineMask:  ^uint64(cfg.LineSize - 1),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		l1:        newCache(cfg.L1Size, cfg.LineSize, cfg.L1Assoc),
		l2:        newCache(cfg.L2Size, cfg.LineSize, cfg.L2Assoc),
		nextReady: ^uint64(0),
	}
}

// Default creates a Hierarchy with DefaultConfig.
func Default() *Hierarchy { return New(DefaultConfig()) }

// Config returns the configuration the hierarchy was built with.
func (h *Hierarchy) Config() Config { return h.cfg }

// Now reports the current simulated cycle.
func (h *Hierarchy) Now() uint64 { return h.now }

// Stats returns a snapshot of the accumulated counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// Compute advances the clock by c busy cycles of instruction work.
func (h *Hierarchy) Compute(c uint64) {
	h.now += c
	h.stats.Busy += c
}

// collect installs any in-flight prefetched lines that have arrived by
// the current cycle into the caches, in issue order.
func (h *Hierarchy) collect() {
	if h.now < h.nextReady {
		return
	}
	kept := h.inflight[:0]
	h.nextReady, h.inMask = ^uint64(0), 0
	for _, f := range h.inflight {
		if f.ready <= h.now {
			h.l1.insert(f.line)
			h.l2.insert(f.line)
		} else {
			kept = append(kept, f)
			h.nextReady = min(h.nextReady, f.ready)
			h.inMask |= h.inBit(f.line)
		}
	}
	h.inflight = kept
}

// inBit is line's bit in inMask.
func (h *Hierarchy) inBit(line uint64) uint64 { return 1 << (line >> (h.lineShift & 63) & 63) }

// findInflight returns the index of line in the in-flight list, or -1.
func (h *Hierarchy) findInflight(line uint64) int {
	if h.inMask&h.inBit(line) == 0 {
		return -1
	}
	for i, f := range h.inflight {
		if f.line == line {
			return i
		}
	}
	return -1
}

// Access performs a demand load or store of the line containing addr,
// advancing the clock by however long the processor stalls. Writes are
// modeled identically to reads (write-allocate, no write buffer).
func (h *Hierarchy) Access(addr uint64) {
	line := addr & h.lineMask
	if i := h.findInflight(line); i >= 0 {
		// Prefetch hit: wait for the arrival of the fill (which may
		// already have happened).
		f := h.inflight[i]
		h.inflight = append(h.inflight[:i], h.inflight[i+1:]...)
		var stall uint64
		if f.ready > h.now {
			stall = f.ready - h.now
			h.stats.Stall += stall
			h.now = f.ready
		}
		h.l1.insert(line)
		h.l2.insert(line)
		h.stats.PFHits++
		h.emit(EvPrefetchHit, line, stall)
		return
	}
	h.collect()
	if h.l1.lookup(line) {
		h.stats.L1Hits++
		h.emit(EvL1Hit, line, 0)
		return
	}
	if h.l2.lookup(line) {
		h.stats.L2Hits++
		h.stats.Stall += h.cfg.L2Latency
		h.now += h.cfg.L2Latency
		h.l1.insert(line)
		h.emit(EvL2Hit, line, h.cfg.L2Latency)
		return
	}
	// Full miss to memory: the transfer starts now but completes no
	// sooner than Tnext after the previous memory transfer.
	complete := h.now + h.cfg.MemLatency
	if c := h.memFree + h.cfg.MemNext; c > complete {
		complete = c
	}
	h.memFree = complete
	h.stats.MemMisses++
	stall := complete - h.now
	h.stats.Stall += stall
	h.now = complete
	h.l1.insert(line)
	h.l2.insert(line)
	h.emit(EvMemMiss, line, stall)
}

// Prefetch issues a non-binding software prefetch for the line
// containing addr. It charges the prefetch instruction's issue cost
// but does not wait for the data; a later Access to the same line
// waits only for the remaining fill time. If all miss handlers are
// busy the processor stalls until one frees up, as on real hardware.
func (h *Hierarchy) Prefetch(addr uint64) {
	line := addr & h.lineMask
	h.collect()
	h.stats.Prefetch++
	h.stats.Busy += h.cfg.PrefetchIssue
	h.now += h.cfg.PrefetchIssue
	if h.findInflight(line) >= 0 || h.l1.lookup(line) {
		h.emit(EvPrefetchIssue, line, 0)
		return // already present or on the way
	}
	var stall uint64
	if len(h.inflight) >= h.cfg.MissHandlers {
		// Stall until the earliest outstanding fill retires.
		earliest := h.inflight[0].ready
		for _, f := range h.inflight[1:] {
			if f.ready < earliest {
				earliest = f.ready
			}
		}
		if earliest > h.now {
			stall = earliest - h.now
			h.stats.Stall += stall
			h.now = earliest
		}
		h.collect()
	}
	var ready uint64
	if h.l2.lookup(line) {
		ready = h.now + h.cfg.L2Latency
	} else {
		ready = h.now + h.cfg.MemLatency
		if c := h.memFree + h.cfg.MemNext; c > ready {
			ready = c
		}
		h.memFree = ready
		h.stats.PFMem++
	}
	h.inflight = append(h.inflight, inflightLine{line: line, ready: ready})
	h.nextReady = min(h.nextReady, ready)
	h.inMask |= h.inBit(line)
	h.emit(EvPrefetchIssue, line, stall)
}

// AccessRange issues demand accesses for every line overlapped by
// [addr, addr+size). A range whose end would wrap past the top of the
// address space is clamped to the last representable line.
func (h *Hierarchy) AccessRange(addr uint64, size int) {
	first, n := h.lineRange(addr, size)
	for i := range n {
		h.Access(first + i<<h.lineShift)
	}
}

// PrefetchRange issues prefetches for every line overlapped by
// [addr, addr+size). A range whose end would wrap past the top of the
// address space is clamped to the last representable line. It first
// asks the host for the L2 tag set of every line, so the sets' host
// cache misses overlap each other instead of following one another.
func (h *Hierarchy) PrefetchRange(addr uint64, size int) {
	first, n := h.lineRange(addr, size)
	for i := range n {
		h.l2.hint(first + i<<h.lineShift)
	}
	for i := range n {
		h.Prefetch(first + i<<h.lineShift)
	}
}

// lineRange returns the first line of [addr, addr+size) and how many
// lines the range overlaps (none if size <= 0), clamping a wrapping end
// to the last representable line so the range loops terminate
// deterministically.
func (h *Hierarchy) lineRange(addr uint64, size int) (first, n uint64) {
	if size <= 0 {
		return 0, 0
	}
	end := addr + uint64(size) - 1
	if end < addr {
		end = ^uint64(0) // range wraps: clamp
	}
	first = addr & h.lineMask
	return first, (end&h.lineMask-first)>>h.lineShift + 1
}

// FlushCaches empties both cache levels and abandons in-flight
// prefetches. It models the cold-cache experiments, where the caches
// are cleared between operations. The clock is not changed.
func (h *Hierarchy) FlushCaches() {
	h.l1.flush()
	h.l2.flush()
	h.inflight = h.inflight[:0]
	h.nextReady, h.inMask = ^uint64(0), 0
}

// ResetStats zeroes the counters without touching cache contents or
// the clock.
func (h *Hierarchy) ResetStats() { h.stats = Stats{} }

// Contains reports which cache level (1, 2) holds the line containing
// addr, or 0 if it is uncached. In-flight prefetches that have arrived
// are collected first. It peeks without promoting, so test-time
// inspection does not perturb the LRU state (and hence the simulated
// results) of the run under test.
func (h *Hierarchy) Contains(addr uint64) int {
	line := addr & h.lineMask
	h.collect()
	if h.l1.peek(line) {
		return 1
	}
	if h.l2.peek(line) {
		return 2
	}
	return 0
}
