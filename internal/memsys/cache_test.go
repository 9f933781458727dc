package memsys

import (
	"math/rand"
	"testing"
)

// refCache is the slice-per-set true-LRU cache the flat tag array
// replaced, kept as the reference it is checked against: each set an
// MRU-first slice of at most assoc lines, a set chosen by modulo, and
// flush truncating every set.
type refCache struct {
	sets      [][]uint64
	assoc     int
	lineShift uint
}

func newRefCache(sizeBytes, lineSize, assoc int) *refCache {
	c := &refCache{sets: make([][]uint64, sizeBytes/lineSize/assoc), assoc: assoc}
	for 1<<c.lineShift < lineSize {
		c.lineShift++
	}
	return c
}

func (c *refCache) set(line uint64) *[]uint64 {
	return &c.sets[(line>>c.lineShift)%uint64(len(c.sets))]
}

// find returns line's position in its set, or -1.
func (c *refCache) find(line uint64) int {
	for i, l := range *c.set(line) {
		if l == line {
			return i
		}
	}
	return -1
}

func (c *refCache) peek(line uint64) bool { return c.find(line) >= 0 }

func (c *refCache) lookup(line uint64) bool {
	i := c.find(line)
	if i > 0 {
		s := *c.set(line)
		copy(s[1:i+1], s[:i])
		s[0] = line
	}
	return i >= 0
}

func (c *refCache) insert(line uint64) {
	if c.lookup(line) {
		return
	}
	s := c.set(line)
	if len(*s) < c.assoc {
		*s = append(*s, 0)
	}
	copy((*s)[1:], *s)
	(*s)[0] = line
}

func (c *refCache) flush() {
	for i := range c.sets {
		c.sets[i] = c.sets[i][:0]
	}
}

func (c *refCache) lines() (n int) {
	for _, s := range c.sets {
		n += len(s)
	}
	return n
}

// TestCacheMatchesReference drives the cache and the reference through
// the same seeded random operations and requires the same answer from
// every lookup and peek. Lines come from a pool a few times the cache's
// capacity (so sets fill, evict and promote), plus line 0 and the top
// line, whose offset bits the generation shares. Each run flushes more
// often than a line has offset values, so the generation wraps and the
// array is cleared several times.
func TestCacheMatchesReference(t *testing.T) {
	for _, lineSize := range []int{4, 64} {
		for _, assoc := range []int{1, 2, 4, 8} {
			size := 16 * lineSize * assoc // 16 sets
			c, ref := newCache(size, lineSize, assoc), newRefCache(size, lineSize, assoc)
			r := rand.New(rand.NewSource(int64(lineSize*10 + assoc)))
			pool := 4 * size / lineSize
			flushes := 0
			for op := 0; op < 200_000; op++ {
				var line uint64
				switch n := r.Intn(pool + 2); n {
				case pool:
					line = ^uint64(lineSize - 1)
				default:
					line = uint64(n) * uint64(lineSize)
				}
				switch k := r.Intn(100); {
				case k < 40:
					c.insert(line)
					ref.insert(line)
				case k < 80:
					if got, want := c.lookup(line), ref.lookup(line); got != want {
						t.Fatalf("line %d assoc %d op %d: lookup(%#x) = %v, want %v", lineSize, assoc, op, line, got, want)
					}
				case k < 99:
					if got, want := c.peek(line), ref.peek(line); got != want {
						t.Fatalf("line %d assoc %d op %d: peek(%#x) = %v, want %v", lineSize, assoc, op, line, got, want)
					}
				default:
					c.flush()
					ref.flush()
					flushes++
				}
				if op%1000 == 0 && c.lines() != ref.lines() {
					t.Fatalf("line %d assoc %d op %d: %d lines resident, want %d", lineSize, assoc, op, c.lines(), ref.lines())
				}
			}
			if flushes <= 2*lineSize {
				t.Fatalf("line %d assoc %d: only %d flushes, want the generation to wrap twice", lineSize, assoc, flushes)
			}
		}
	}
}

// lines reports the number of resident lines.
func (c *cache) lines() (n int) {
	for _, x := range c.tags {
		if x&c.genMax == c.gen {
			n++
		}
	}
	return n
}
