package serve

// Scan cursors (PROTOCOL.md §10, DESIGN.md §15): the one scan path. A
// StoreCursor pins one refcounted snapshot per shard at open and
// serves the merged key range in bounded chunks, so a scan of any
// size holds admission tokens only while a chunk executes. Store.Scan
// is a cursor drained once; both see each shard's view frozen at open,
// paid for with snapshot lifetime instead of row tokens.

import (
	"fmt"
	"math"
	"sync"

	"pbtree/internal/backend"
	"pbtree/internal/core"
)

// cursorRefill is the most rows a shard run is refilled with at a
// time. Larger than the common chunk size so most SCANNEXTs of a long
// scan are served from buffered rows without touching the backend. A
// run's first fill is its share of the rows the first chunk asked for
// (firstFill) and each later one doubles, so a short scan reads about
// what it returns — not shards x what it returns — and, however the
// rows are skewed across shards, a run never reads more than twice
// what it delivered plus its first fill.
const cursorRefill = 1024

// firstFill sizes a run's first fill for a chunk of first rows merged
// from the given number of shards: an even share, plus — keys are
// hash-partitioned, so a share is a binomial draw — a margin of a
// quarter and eight rows, about three standard deviations at the
// common sizes (100 rows: 70 of 2 shards, 24 of 8), so that most
// chunks finish on the first fill. One shard gets no margin: its
// share is exact. Never more than cursorRefill.
func firstFill(first, shards int) int {
	per := (min(first, cursorRefill) + shards - 1) / shards
	if shards > 1 {
		per += per/4 + 8
	}
	return per
}

// cursorRun is one shard's slice of the merged stream: a buffered run
// plus the key to resume the shard's backend scan from.
type cursorRun struct {
	snap backend.Snapshot
	buf  []core.Pair // undelivered rows, sorted
	pos  int         // next undelivered row in buf
	fill int         // rows the last refill asked for; 0 before the first
	next core.Key    // resume key for the next backend refill
	done bool        // the shard has no rows left in [next, end]
}

// StoreCursor is a server-side streaming scan over [start, end]. It
// is created by Store.OpenCursor, driven by Next, and must be closed
// exactly once (Close is idempotent). A cursor is safe for concurrent
// use: SCANNEXTs racing on one cursor serialize on its mutex and each
// receives a disjoint chunk.
type StoreCursor struct {
	mu   sync.Mutex
	end  core.Key
	runs []cursorRun
	open bool
}

// OpenCursor pins a snapshot of every shard and returns a cursor over
// [start, end]. On a durable store it blocks until all shards have
// recovered; a recovery error fails the open with nothing pinned.
func (st *Store) OpenCursor(start, end core.Key) (*StoreCursor, error) {
	for _, sh := range st.shards {
		if err := sh.waitReady(); err != nil {
			return nil, fmt.Errorf("serve: shard %d unavailable: %w", sh.idx, err)
		}
	}
	c := &StoreCursor{end: end, runs: make([]cursorRun, len(st.shards)), open: true}
	for i, sh := range st.shards {
		c.runs[i] = cursorRun{snap: sh.be.Snapshot(), next: start}
	}
	return c, nil
}

// refill loads the next batch of rows for run i once its buffer is
// used up; first is the chunk size that sizes a run's first batch.
// Keys are unique per shard, so resuming from lastKey+1 never
// duplicates or skips a row.
func (c *StoreCursor) refill(i, first int) {
	r := &c.runs[i]
	if r.done || r.pos < len(r.buf) {
		return
	}
	if r.fill == 0 {
		r.fill = firstFill(first, len(c.runs))
	} else {
		r.fill = min(2*r.fill, cursorRefill)
	}
	r.buf = r.snap.Scan(r.next, c.end, r.fill)
	r.pos = 0
	if len(r.buf) < r.fill {
		// The backend returned everything left in [next, end].
		r.done = true
		return
	}
	last := r.buf[len(r.buf)-1].Key
	if last >= c.end || last == math.MaxUint32 {
		r.done = true
		return
	}
	r.next = last + 1
}

// take merges up to maxRows rows off the shard runs, in key order.
// Shard counts are small, so a linear heap-free merge is simplest and
// fast enough. Callers hold c.mu or own the cursor.
func (c *StoreCursor) take(maxRows int) []core.Pair {
	rows := make([]core.Pair, 0, min(maxRows, cursorRefill))
	for len(rows) < maxRows {
		var best *cursorRun
		for i := range c.runs {
			r := &c.runs[i]
			if r.pos == len(r.buf) {
				if c.refill(i, maxRows); r.pos == len(r.buf) {
					continue
				}
			}
			if best == nil || r.buf[r.pos].Key < best.buf[best.pos].Key {
				best = r
			}
		}
		if best == nil {
			break
		}
		rows = append(rows, best.buf[best.pos])
		best.pos++
	}
	return rows
}

// Next returns up to max rows in key order, and whether the scan is
// exhausted. After done is reported the cursor holds no buffered rows
// but still pins its snapshots until Close.
func (c *StoreCursor) Next(maxRows int) (rows []core.Pair, done bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.open || maxRows <= 0 {
		return nil, true
	}
	rows = c.take(maxRows)
	// The scan is done only if nothing is left: a run used up exactly
	// at the chunk's end has to be read further to tell.
	for i := range c.runs {
		c.refill(i, cursorRefill)
		if c.runs[i].pos < len(c.runs[i].buf) {
			return rows, false
		}
	}
	return rows, true
}

// Scan returns up to limit pairs with keys in [start, end], in key
// order and per-shard snapshot-consistent: a cursor drained once. It
// does without Next's exhaustion probe, whose answer nobody reads and
// which costs a cursorRefill read whenever a run is used up exactly at
// the limit (always, on one shard).
func (st *Store) Scan(start, end core.Key, limit int) []core.Pair {
	if limit <= 0 {
		return nil
	}
	c, err := st.OpenCursor(start, end)
	if err != nil {
		return nil
	}
	defer c.Close()
	return c.take(limit)
}

// Dump returns every pair of the store in key order — a consistent
// per-shard dump, merged. Intended for tests and offline persistence.
func (st *Store) Dump() []core.Pair {
	return st.Scan(0, math.MaxUint32, math.MaxInt)
}

// Close releases every pinned snapshot. Safe to call more than once;
// only the first call releases.
func (c *StoreCursor) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.open {
		return
	}
	c.open = false
	for i := range c.runs {
		c.runs[i].snap.Release()
		c.runs[i].buf, c.runs[i].done = nil, true
	}
}
