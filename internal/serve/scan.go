package serve

// Scan cursors (PROTOCOL.md §10, DESIGN.md §15): the one scan path. A
// StoreCursor pins one refcounted snapshot per shard at open and opens
// a resumable run of each — on the pbtree engine as one descent for all
// shards, level by level in lockstep (backend.Runs) — then serves the
// merged key range in bounded chunks, so a scan of any size holds its
// connection's goroutine only while a chunk executes. A run is refilled
// from where its last fill stopped. Store.Scan is a cursor drained
// once; both see each shard's view frozen at open, paid for with
// snapshot lifetime.

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"pbtree/internal/backend"
	"pbtree/internal/core"
)

// cursorRefill is the most rows a shard run is filled with at a time,
// the size of its buffer. Larger than the common chunk size so most
// SCANNEXTs of a long scan are served from buffered rows without
// touching the backend. A run's first fill is its share of the rows the
// first chunk asked for (firstFill) and each later one doubles, so a
// short scan reads about what it returns — not shards x what it
// returns — and, however the rows are skewed across shards, a run never
// reads more than twice what it delivered plus its first fill.
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

// cursorRun is one shard's slice of the merged stream: buf[pos:n] are
// the rows of its run's last fill not yet delivered.
type cursorRun struct {
	buf    []core.Pair // the first fill's size, then cursorRefill rows
	pos, n int
	fill   int  // rows the last fill asked for; 0 before the first
	done   bool // the run has nothing left past buf[:n]
}

// StoreCursor is a server-side streaming scan over [start, end]. It
// is created by Store.OpenCursor, driven by Next, and must be closed
// exactly once (Close is idempotent). A cursor is safe for concurrent
// use: SCANNEXTs racing on one cursor serialize on its mutex and each
// receives a disjoint chunk.
type StoreCursor struct {
	mu    sync.Mutex
	snaps []backend.Snapshot
	group backend.Runs
	runs  []cursorRun
	live  []*cursorRun // merge's scratch: the runs with rows buffered
	open  bool
}

// OpenCursor pins a snapshot of every shard and returns a cursor over
// [start, end]. On a durable store it blocks until all shards have
// recovered; a recovery error fails the open with nothing pinned.
func (st *Store) OpenCursor(start, end core.Key) (*StoreCursor, error) {
	c := new(StoreCursor)
	if err := c.pin(st, start, end); err != nil {
		return nil, err
	}
	return c, nil
}

// pin opens c over [start, end] on a snapshot of every shard of st,
// reusing whatever storage c already has.
func (c *StoreCursor) pin(st *Store, start, end core.Key) error {
	for _, sh := range st.shards {
		if err := sh.waitReady(); err != nil {
			return fmt.Errorf("serve: shard %d unavailable: %w", sh.idx, err)
		}
	}
	for _, sh := range st.shards {
		c.snaps = append(c.snaps, sh.be.Snapshot())
	}
	c.openRuns(start, end)
	return nil
}

// openRuns opens a run of every pinned snapshot over [start, end],
// keeping the buffers of the cursor's last open.
func (c *StoreCursor) openRuns(start, end core.Key) {
	n := len(c.snaps)
	c.group.Open(c.snaps, start, end)
	if cap(c.runs) < n {
		c.runs = make([]cursorRun, n)
	}
	c.runs = c.runs[:n]
	for i := range c.runs {
		c.runs[i] = cursorRun{buf: c.runs[i].buf}
	}
	c.open = true
}

// refill fills run i again from where its last fill stopped: the first
// fill asks for the run's share of first, the row count of the chunk
// being merged, each later one for twice the last, up to cursorRefill.
func (c *StoreCursor) refill(i, first int) {
	r, run := &c.runs[i], c.group.Run(i)
	size := cursorRefill
	if r.fill == 0 {
		// A first fill's buffer is what it asks for, so a short scan, or
		// an open the server turns away, never pays for cursorRefill rows.
		r.fill = firstFill(first, len(c.runs))
		size = r.fill
	} else {
		r.fill = min(2*r.fill, cursorRefill)
	}
	if cap(r.buf) < r.fill {
		r.buf = make([]core.Pair, size)
	}
	r.pos, r.n = 0, run.NextPairs(r.buf[:r.fill])
	r.done = r.n < r.fill || run.Done()
}

// take merges up to maxRows rows off the shard runs, in key order.
// Callers hold c.mu or own the cursor.
func (c *StoreCursor) take(maxRows int) []core.Pair {
	rows := make([]core.Pair, min(maxRows, cursorRefill))
	n := c.merge(rows, maxRows)
	for n == len(rows) && n < maxRows {
		rows = slices.Grow(rows, min(maxRows-n, n))
		rows = rows[:min(maxRows, cap(rows))]
		n += c.merge(rows[n:], maxRows)
	}
	return rows[:n]
}

// merge fills out with the next rows in key order and returns how
// many: fewer than len(out) only once every run is used up. Each round
// refills the runs whose rows are all delivered and that have more,
// then merges the runs with rows until out is full or one of them is
// used up. first sizes a run's first fill.
func (c *StoreCursor) merge(out []core.Pair, first int) int {
	n := 0
	for n < len(out) {
		c.live = c.live[:0]
		for i := range c.runs {
			r := &c.runs[i]
			if r.pos == r.n && !r.done {
				c.refill(i, first)
			}
			if r.pos < r.n {
				c.live = append(c.live, r)
			}
		}
		switch len(c.live) {
		case 0:
			return n
		case 2:
			n += merge2(out[n:], c.live[0], c.live[1])
		default:
			n += mergeMin(out[n:], c.live)
		}
	}
	return n
}

// merge2 merges two runs into out until out is full or either run is
// used up, and returns the rows written — the common case, and worth
// its own loop (EXPERIMENTS.md "One descent for all shards": mergeMin
// alone makes a 2 000-row stream about 75 % slower). The positions live
// in registers and each row is picked without a data-dependent branch:
// keys never tie across shards, so the row is a's when a's key is the
// smaller, and that comparison becomes a mask selecting between the
// two rows packed as words.
func merge2(out []core.Pair, a, b *cursorRun) int {
	x, y := a.buf[a.pos:a.n], b.buf[b.pos:b.n]
	i, j, n := 0, 0, 0
	for ; n < len(out) && i < len(x) && j < len(y); n++ {
		p, q := x[i], y[j]
		lt := (uint64(p.Key) - uint64(q.Key)) >> 63 // 1 when p comes first
		vp := uint64(p.Key) | uint64(p.TID)<<32
		vq := uint64(q.Key) | uint64(q.TID)<<32
		v := vq ^ (vp^vq)&-lt
		out[n] = core.Pair{Key: core.Key(v), TID: core.TID(v >> 32)}
		i += int(lt)
		j += int(lt ^ 1)
	}
	a.pos += i
	b.pos += j
	return n
}

// mergeMin merges one run, or three or more, into out until out is
// full or one of them is used up: each row is the smallest head, found
// with a conditional move per run.
func mergeMin(out []core.Pair, live []*cursorRun) int {
	for n := range out {
		bi, best := 0, uint64(math.MaxUint64)
		for i, r := range live {
			if k := uint64(r.buf[r.pos].Key); k < best {
				bi, best = i, k
			}
		}
		r := live[bi]
		out[n] = r.buf[r.pos]
		if r.pos++; r.pos == r.n {
			return n + 1
		}
	}
	return len(out)
}

// Next returns up to max rows in key order, and whether the scan is
// exhausted: nothing buffered and every run done, which the runs say
// without being read further. After done is reported the cursor holds
// no buffered rows but still pins its snapshots until Close.
func (c *StoreCursor) Next(maxRows int) (rows []core.Pair, done bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.open || maxRows <= 0 {
		return nil, true
	}
	rows = c.take(maxRows)
	for i := range c.runs {
		if r := &c.runs[i]; r.pos < r.n || !r.done {
			return rows, false
		}
	}
	return rows, true
}

// Scan returns up to limit pairs with keys in [start, end], in key
// order and per-shard snapshot-consistent: a cursor drained once. The
// cursor is the store's spare one unless another Scan holds it, so a
// scan allocates its result and nothing else.
func (st *Store) Scan(start, end core.Key, limit int) []core.Pair {
	rows, _ := st.scan(start, end, limit)
	return rows
}

// scan is Scan reporting a shard that failed recovery, which the SCAN
// op answers with, as SCANOPEN does.
func (st *Store) scan(start, end core.Key, limit int) ([]core.Pair, error) {
	if limit <= 0 {
		return nil, nil
	}
	c := st.spare.Swap(nil)
	if c == nil {
		c = new(StoreCursor)
	}
	if err := c.pin(st, start, end); err != nil {
		return nil, err
	}
	rows := c.take(limit)
	c.Close()
	st.spare.Store(c)
	return rows, nil
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
	c.group.Close()
	for _, s := range c.snaps {
		s.Release()
	}
	clear(c.snaps)
	c.snaps = c.snaps[:0]
}
