package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"pbtree"
)

// maxRetries bounds how often one operation is re-sent after the
// server refused it (StatusRetry) before it counts as failed.
const maxRetries = 200

// recorder collects what one phase observed. Latencies are in
// microseconds, measured from the operation's due time.
type recorder struct {
	mu        sync.Mutex
	start     time.Time
	lat       [numOps][]float64
	late      []float64 // how long after its due time each op was sent
	slices    []int64   // ops completed per sliceLen since start
	attempted int64
	failed    int64 // transport error, error status, deadline, refused for good
	wrong     int64 // answered, but the answer fails the output check
	retries   int64 // refusals that were retried
	firstErr  string
}

// sliceLen is the resolution at which completions are counted over time.
const sliceLen = 100 * time.Millisecond

func newRecorder() *recorder { return &recorder{start: time.Now()} }

// outcome is how one operation ended.
type outcome struct {
	err     error // non-nil: failed
	wrong   string
	retries int
}

func (r *recorder) add(kind opKind, due, sent, end time.Time, o outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.retries += int64(o.retries)
	switch {
	case o.err != nil:
		r.failed++
		if r.firstErr == "" {
			r.firstErr = fmt.Sprintf("%s: %v", opNames[kind], o.err)
		}
		return // a failed op has no latency: it misses every limit
	case o.wrong != "":
		r.wrong++
		if r.firstErr == "" {
			r.firstErr = fmt.Sprintf("%s: wrong answer: %s", opNames[kind], o.wrong)
		}
		return
	}
	r.lat[kind] = append(r.lat[kind], float64(end.Sub(due))/1e3)
	r.late = append(r.late, float64(sent.Sub(due))/1e3)
	s := int(end.Sub(r.start) / sliceLen)
	for len(r.slices) <= s {
		r.slices = append(r.slices, 0)
	}
	r.slices[s]++
}

// all returns every latency sample of the phase, whatever the op.
func (r *recorder) all() []float64 {
	var v []float64
	for k := range r.lat {
		v = append(v, r.lat[k]...)
	}
	return v
}

// completed is the number of ops that finished with a checked answer.
func (r *recorder) completed() int64 { return r.attempted - r.failed - r.wrong }

// throughput is the completion rate (ops/s) between from and to after
// the phase's start, both rounded down to whole slices. Leaving out the
// start of a closed-loop phase leaves out its ramp-up.
func (r *recorder) throughput(from, to time.Duration) float64 {
	a, b := int(from/sliceLen), int(to/sliceLen)
	if b <= a {
		return math.NaN()
	}
	var n int64
	for s := a; s < b && s < len(r.slices); s++ {
		n += r.slices[s]
	}
	return float64(n) / (time.Duration(b-a) * sliceLen).Seconds()
}

// checkPreloaded verifies a lookup of a preloaded key: tid = key/8.
func checkPreloaded(k pbtree.Key, tid pbtree.TID, found bool) string {
	if !found || tid != pbtree.TID(k/8) {
		return fmt.Sprintf("key %d: got tid %d found %v, want tid %d", k, tid, found, k/8)
	}
	return ""
}

// checkRows verifies a scan result: ascending, at or after start, at
// most limit rows, and every preloaded key carrying tid = key/8. When
// exact is set no other keys exist, so the rows are fully determined.
func checkRows(rows []pbtree.Pair, start pbtree.Key, limit, nkeys int, exact bool) string {
	if len(rows) > limit {
		return fmt.Sprintf("scan from %d: %d rows, limit %d", start, len(rows), limit)
	}
	prev := pbtree.Key(0)
	for i, p := range rows {
		if p.Key < start || (i > 0 && p.Key <= prev) {
			return fmt.Sprintf("scan from %d: row %d key %d not ascending within range", start, i, p.Key)
		}
		if p.Key%8 == 0 && p.TID != pbtree.TID(p.Key/8) {
			return fmt.Sprintf("scan from %d: key %d carries tid %d", start, p.Key, p.TID)
		}
		prev = p.Key
	}
	if exact {
		want := min(limit, nkeys-int(start/8)+1)
		if len(rows) != want {
			return fmt.Sprintf("scan from %d: %d rows, want %d", start, len(rows), want)
		}
		for i, p := range rows {
			if p.Key != start+pbtree.Key(8*i) {
				return fmt.Sprintf("scan from %d: row %d is key %d", start, i, p.Key)
			}
		}
	}
	return ""
}

// conn is one client connection with the model of its own writes.
type conn struct {
	cl    *pbtree.ServeClient
	model *ackModel
	nkeys int
	exact bool // no writes in this workload: scans are fully determined
}

// classify turns a response into the outcome's error, or asks for a
// re-send after the server's hint when the request was refused.
func classify(rs *pbtree.ServeResponse, err error, out *outcome) (retry bool) {
	switch {
	case err != nil:
		out.err = err
	case rs.Status == pbtree.StatusRetry && out.retries < maxRetries:
		out.retries++
		time.Sleep(max(time.Duration(rs.RetryAfterMS)*time.Millisecond, time.Millisecond))
		return true
	case rs.Status == pbtree.StatusRetry:
		out.err = fmt.Errorf("refused %d times", out.retries+1)
	case rs.Status == pbtree.StatusDeadline:
		out.err = fmt.Errorf("deadline expired")
	case rs.Status == pbtree.StatusErr:
		out.err = fmt.Errorf("server error: %s", rs.Err)
	}
	return false
}

// do sends one request synchronously, re-sending for as long as it is
// refused.
func (c *conn) do(req *pbtree.ServeRequest, out *outcome) *pbtree.ServeResponse {
	for {
		rs, err := c.cl.Do(req)
		if !classify(rs, err, out) {
			return rs
		}
	}
}

// request is the single wire request of an op; streams, which are
// several requests, have none.
func request(o op) *pbtree.ServeRequest {
	switch o.kind {
	case opGet:
		return &pbtree.ServeRequest{Op: pbtree.ServeOpGet, Keys: o.keys}
	case opMGet:
		return &pbtree.ServeRequest{Op: pbtree.ServeOpMGet, Keys: o.keys}
	case opScan:
		return &pbtree.ServeRequest{Op: pbtree.ServeOpScan, Start: o.start, End: pbtree.MaxKey, Limit: uint32(o.n)}
	case opPut:
		return &pbtree.ServeRequest{Op: pbtree.ServeOpPut, Pairs: o.pairs}
	case opDel:
		return &pbtree.ServeRequest{Op: pbtree.ServeOpDel, Keys: o.keys}
	}
	return nil
}

// exec runs one operation synchronously, checks its answer, and
// records it against its due time.
func (c *conn) exec(o op, due time.Time, rec *recorder) {
	sent := time.Now()
	switch o.kind {
	case opStream:
		c.stream(o, due, sent, rec)
		return
	case opPutGet:
		c.putGet(o, due, sent, rec)
		return
	}
	req := request(o)
	c.settle(o, req, c.cl.Go(req, nil), due, sent, rec)
}

// putGet puts one pair and then reads it back; the answer must be the
// value just acknowledged.
func (c *conn) putGet(o op, due, sent time.Time, rec *recorder) {
	var out outcome
	p := o.pairs[0]
	c.do(&pbtree.ServeRequest{Op: pbtree.ServeOpPut, Pairs: o.pairs}, &out)
	if out.err != nil {
		c.model.fail([]pbtree.Key{p.Key})
	} else {
		c.model.ackPut(o.pairs)
		rs := c.do(&pbtree.ServeRequest{Op: pbtree.ServeOpGet, Keys: []pbtree.Key{p.Key}}, &out)
		if out.err == nil && (rs.Status != pbtree.StatusOK || len(rs.Lookups) != 1 || rs.Lookups[0].TID != p.TID) {
			out.wrong = fmt.Sprintf("key %d reads back status %d %+v right after put of tid %d was acknowledged", p.Key, rs.Status, rs.Lookups, p.TID)
		}
	}
	rec.add(o.kind, due, sent, time.Now(), out)
}

// stream runs one streaming scan: open a cursor, pull chunks until the
// wanted rows are in, close.
func (c *conn) stream(o op, due, sent time.Time, rec *recorder) {
	var out outcome
	var rows []pbtree.Pair
	err := c.cl.StreamScan(o.start, pbtree.MaxKey, o.chunk, func(chunk []pbtree.Pair) bool {
		rows = append(rows, chunk...)
		return len(rows) < o.n
	})
	if err != nil {
		out.err = err
	} else {
		rows = rows[:min(len(rows), o.n)]
		out.wrong = checkRows(rows, o.start, o.n, c.nkeys, c.exact)
	}
	rec.add(o.kind, due, sent, time.Now(), out)
}

// settle waits for the response to a sent request (re-sending while
// the server refuses it), checks the answer, updates the write model
// and records the operation against its due time.
func (c *conn) settle(o op, req *pbtree.ServeRequest, call *pbtree.ServeCall, due, sent time.Time, rec *recorder) {
	var out outcome
	<-call.Done
	rs := call.Resp
	if classify(rs, call.Err, &out) {
		rs = c.do(req, &out)
	}
	switch {
	case out.err != nil:
		switch o.kind {
		case opPut:
			c.model.fail(pairKeys(o.pairs))
		case opDel:
			c.model.fail(o.keys)
		}
	case o.kind == opGet || o.kind == opMGet:
		if rs.Status != pbtree.StatusOK || len(rs.Lookups) != len(o.keys) {
			out.wrong = fmt.Sprintf("status %d with %d lookups for %d keys", rs.Status, len(rs.Lookups), len(o.keys))
			break
		}
		for i, k := range o.keys {
			// A GET's lookup carries no found flag of its own: StatusOK is it.
			if out.wrong = checkPreloaded(k, rs.Lookups[i].TID, o.kind == opGet || rs.Lookups[i].Found); out.wrong != "" {
				break
			}
		}
	case o.kind == opScan:
		out.wrong = checkRows(rs.Pairs, o.start, o.n, c.nkeys, c.exact)
	case o.kind == opPut:
		c.model.ackPut(o.pairs)
	case o.kind == opDel:
		c.model.ackDel(o.keys[0])
	}
	rec.add(o.kind, due, sent, time.Now(), out)
}

// verifyKeys reads keys back in MGETs of 64 and compares with want
// (0 = must be absent). It returns how many keys it read and how many
// disagreed.
func (c *conn) verifyKeys(keys []pbtree.Key, want []pbtree.TID) (checked, bad int64, err error) {
	const batch = 64
	for i := 0; i < len(keys); i += batch {
		j := min(i+batch, len(keys))
		var out outcome
		rs := c.do(&pbtree.ServeRequest{Op: pbtree.ServeOpMGet, Keys: keys[i:j]}, &out)
		if out.err != nil {
			return checked, bad, fmt.Errorf("verify MGET: %w", out.err)
		}
		if rs.Status != pbtree.StatusOK || len(rs.Lookups) != j-i {
			return checked, bad, fmt.Errorf("verify MGET: status %d with %d lookups for %d keys", rs.Status, len(rs.Lookups), j-i)
		}
		for n, l := range rs.Lookups {
			w := want[i+n]
			if (w == 0 && l.Found) || (w != 0 && (!l.Found || l.TID != w)) {
				bad++
			}
			checked++
		}
	}
	return checked, bad, nil
}

// clock is the time source of the pacer, injectable for its test.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var wallClock = clock{now: time.Now, sleep: time.Sleep}

// pacerTick is how often the open-loop generator wakes. It sleeps and
// never spins: a spinning pacer takes a core from the server.
const pacerTick = time.Millisecond

// pace is the open-loop schedule: n requests, the i-th due at
// start + i*gap. Every tick it issues all requests whose due time has
// passed, handing each its due time — latency is counted from there,
// so a stall delays later requests' clocks no more than it would delay
// independent users.
func pace(clk clock, start time.Time, gap time.Duration, n int64, issue func(i int64, due time.Time)) {
	for i := int64(0); i < n; {
		now := clk.now()
		for ; i < n; i++ {
			due := start.Add(time.Duration(i) * gap)
			if due.After(now) {
				break
			}
			issue(i, due)
		}
		if i < n {
			clk.sleep(pacerTick)
		}
	}
}

// runSeq sends the primary op back to back on one connection with
// nothing else outstanding.
func runSeq(c *conn, gen *opGen, primary opKind, dur time.Duration) *recorder {
	rec := newRecorder()
	for end := rec.start.Add(dur); time.Now().Before(end); {
		c.exec(gen.primary(primary), time.Now(), rec)
	}
	return rec
}

// runOpen offers the whole mix at a fixed rate, split evenly over the
// connections, each request on its own goroutine so a slow one never
// holds back the schedule.
func runOpen(conns []*conn, gens []*opGen, rate float64, dur time.Duration) *recorder {
	rec := newRecorder()
	gap := time.Duration(float64(time.Second) * float64(len(conns)) / rate)
	n := int64(dur / gap)
	var pacers, inflight sync.WaitGroup
	for i := range conns {
		c, gen := conns[i], gens[i]
		// Stagger the connections so their due times interleave.
		start := rec.start.Add(gap * time.Duration(i) / time.Duration(len(conns)))
		pacers.Add(1)
		go func() {
			defer pacers.Done()
			pace(wallClock, start, gap, n, func(_ int64, due time.Time) {
				// The request goes out here, on the pacer's own goroutine, so
				// a burst of completions cannot delay it; only the wait for
				// the answer is handed off.
				o := gen.next()
				inflight.Add(1)
				if o.kind == opStream {
					go func() {
						defer inflight.Done()
						c.exec(o, due, rec)
					}()
					return
				}
				req, sent := request(o), time.Now()
				call := c.cl.Go(req, nil)
				go func() {
					defer inflight.Done()
					c.settle(o, req, call, due, sent, rec)
				}()
			})
		}()
	}
	pacers.Wait()
	inflight.Wait()
	return rec
}

// satWindow is the closed-loop depth per connection in the sat phase.
const satWindow = 16

// runSat keeps satWindow requests outstanding on every connection.
// only restricts the mix to one op kind (numOps = whole mix).
func runSat(w *workload, conns []*conn, seed int64, dur time.Duration, only opKind, span func(opKind, time.Time, time.Time)) *recorder {
	rec := newRecorder()
	end := rec.start.Add(dur)
	var wg sync.WaitGroup
	for ci, c := range conns {
		for wi := 0; wi < satWindow; wi++ {
			gen := newOpGen(w, rand.New(rand.NewSource(seed+int64(1000*ci+wi))), c.model)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					t0 := time.Now()
					if !t0.Before(end) {
						return
					}
					var o op
					if only == numOps {
						o = gen.next()
					} else {
						o = gen.primary(only)
					}
					c.exec(o, t0, rec)
					if span != nil {
						span(o.kind, t0, time.Now())
					}
				}
			}()
		}
	}
	wg.Wait()
	return rec
}
