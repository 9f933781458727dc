package memsys

import (
	"math/bits"
	"slices"
	"unsafe"
)

// cache is a set-associative cache with true-LRU replacement. It
// tracks only line addresses (tags); data lives in ordinary Go values
// owned by the index structures.
//
// All tags sit in one flat array, nsets × assoc words, each set's ways
// adjacent and ordered MRU-first, so a set lookup reads one host cache
// line. A word is line|gen: the generation lives in the line-offset
// bits, which are zero in every line address, and only words of the
// current generation are resident. Valid words always form a prefix
// of their set (insert shifts in at the front), so an invalid word
// plays the part of an unused way. flush is a generation bump; the
// array is cleared only when the generations run out.
type cache struct {
	tags      []uint64
	assoc     int
	setMask   uint64 // nsets-1; Validate makes nsets a power of two
	lineShift uint
	gen       uint64 // current generation, 1 .. genMax
	genMax    uint64 // lineSize-1: the largest value the offset bits hold
}

func newCache(sizeBytes, lineSize, assoc int) *cache {
	nsets := sizeBytes / lineSize / assoc
	return &cache{
		tags:      make([]uint64, nsets*assoc),
		assoc:     assoc,
		setMask:   uint64(nsets - 1),
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		gen:       1,
		genMax:    uint64(lineSize - 1),
	}
}

// base returns the index of line's first (MRU) way. The shift is
// masked so the compiler drops its oversized-shift check.
func (c *cache) base(line uint64) int {
	return int(line>>(c.lineShift&63)&c.setMask) * c.assoc
}

// set returns the ways of the set whose first way is at i.
func (c *cache) set(i int) []uint64 { return c.tags[i : i+c.assoc : i+c.assoc] }

// hint asks the host to fetch line's set into its cache: a real
// prefetch instruction, with no effect on the simulated state.
func (c *cache) hint(line uint64) {
	prefetchT0(uintptr(unsafe.Pointer(&c.tags[c.base(line)])))
}

// lookup reports whether line is present, promoting it to MRU if so.
// A direct-mapped or 2-way set compares in place.
func (c *cache) lookup(line uint64) bool {
	w, i := line|c.gen, c.base(line)
	switch c.assoc {
	case 1:
		return c.tags[i] == w
	case 2:
		if c.tags[i] == w {
			return true
		}
		if c.tags[i+1] == w {
			c.tags[i], c.tags[i+1] = w, c.tags[i]
			return true
		}
		return false
	}
	s := c.set(i)
	for j, x := range s {
		if x == w {
			copy(s[1:j+1], s[:j])
			s[0] = w
			return true
		}
	}
	return false
}

// peek reports whether line is present without promoting it, leaving
// the LRU order untouched (used by inspection such as Contains).
func (c *cache) peek(line uint64) bool {
	return slices.Contains(c.set(c.base(line)), line|c.gen)
}

// insert places line at MRU position, evicting the LRU line if the set
// is full. Inserting an already-present line just promotes it.
func (c *cache) insert(line uint64) {
	w, i := line|c.gen, c.base(line)
	switch {
	case c.assoc == 1:
		c.tags[i] = w
	case c.assoc == 2:
		if c.tags[i] != w {
			c.tags[i], c.tags[i+1] = w, c.tags[i]
		}
	case !c.lookup(line):
		s := c.set(i)
		copy(s[1:], s)
		s[0] = w
	}
}

// flush empties the cache: every word of an older generation is not
// resident.
func (c *cache) flush() {
	if c.gen == c.genMax {
		clear(c.tags) // zero: the offset bits of no generation
		c.gen = 0
	}
	c.gen++
}
