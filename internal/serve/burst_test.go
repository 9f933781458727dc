package serve

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"pbtree/internal/core"
	"pbtree/internal/obs"
)

// dialRaw opens a bare TCP connection, so a test controls exactly which
// frames share one write.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return c
}

// appendFrame appends one framed request to buf.
func appendFrame(t *testing.T, buf []byte, id uint32, req *Request) []byte {
	t.Helper()
	buf, err := appendRequestFrame(buf, id, req)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// readResponses reads n response frames and returns them by ID,
// failing on an ID answered twice.
func readResponses(t *testing.T, r io.Reader, n int) map[uint32]*Response {
	t.Helper()
	got := make(map[uint32]*Response, n)
	var frame []byte
	for len(got) < n {
		var err error
		if frame, err = ReadFrame(r, frame); err != nil {
			t.Fatalf("after %d of %d responses: %v", len(got), n, err)
		}
		id, rs, err := DecodeResponse(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got[id] != nil {
			t.Fatalf("request %d answered twice", id)
		}
		got[id] = rs
	}
	return got
}

// TestBurstMixedOps sends 40 GETs, 2 MGETs, a PUT and a SCAN in one
// TCP write, more than the server's window of 32: every
// ID must be answered exactly once, with its own payload.
func TestBurstMixedOps(t *testing.T) {
	const n = 5000
	_, addr := startServer(t, n, ServerConfig{})
	c := dialRaw(t, addr)

	var buf []byte
	reqs := map[uint32]*Request{}
	add := func(req *Request) {
		id := uint32(len(reqs) + 1)
		reqs[id] = req
		buf = appendFrame(t, buf, id, req)
	}
	for i := 0; i < 40; i++ {
		k := core.Key(8 * (1 + 97*i%n))
		if i%10 == 9 {
			k = 3 // a miss
		}
		add(&Request{Op: OpGet, Keys: []core.Key{k}})
		switch i {
		case 5, 30:
			add(&Request{Op: OpMGet, Keys: []core.Key{8, 3, core.Key(8 * n), 16, 8}})
		case 12:
			add(&Request{Op: OpPut, Pairs: []core.Pair{{Key: 8*n + 8, TID: 77}}})
		case 20:
			add(&Request{Op: OpScan, Start: 16, End: 80, Limit: 100})
		}
	}
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	got := readResponses(t, c, len(reqs))
	for id, req := range reqs {
		rs := got[id]
		if rs == nil {
			t.Fatalf("request %d (%s) never answered", id, req.Op)
		}
		switch req.Op {
		case OpGet:
			if k := req.Keys[0]; k == 3 {
				if rs.Status != StatusNotFound {
					t.Fatalf("GET miss answered %+v", rs)
				}
			} else if rs.Status != StatusOK || len(rs.Lookups) != 1 || rs.Lookups[0].TID != core.TID(k/8) {
				t.Fatalf("GET %d answered %+v", k, rs)
			}
		case OpMGet:
			want := []Lookup{{1, true}, {0, false}, {n, true}, {2, true}, {1, true}}
			if rs.Status != StatusOK || len(rs.Lookups) != len(want) {
				t.Fatalf("MGET answered %+v", rs)
			}
			for i := range want {
				if rs.Lookups[i] != want[i] {
					t.Fatalf("MGET lookup %d = %+v, want %+v", i, rs.Lookups[i], want[i])
				}
			}
		case OpPut:
			if rs.Status != StatusOK {
				t.Fatalf("PUT answered %+v", rs)
			}
		case OpScan:
			if rs.Status != StatusOK || len(rs.Pairs) != 9 || rs.Pairs[0].Key != 16 || rs.Pairs[8].Key != 80 {
				t.Fatalf("SCAN answered %+v", rs)
			}
		}
	}
}

// TestManyFullBursts pins that a connection's window is its only
// bound: more full bursts of GETs in hand at once than one window per
// core, each on its own connection, are every one answered.
func TestManyFullBursts(t *testing.T) {
	srv, _ := startServer(t, 100, ServerConfig{})
	perCore := max(4*srv.st.Shards(), window*max(2, runtime.GOMAXPROCS(0)))
	outs := make([]bytes.Buffer, (perCore+window-1)/window+1)
	pcs := make([]*pconn, len(outs))
	arrived := time.Now()
	for i := range pcs {
		pcs[i] = newPconn(srv, &outs[i], uint64(i+1), nil)
		for id := uint32(0); id < window; id++ {
			frame, _ := AppendRequest(nil, id, &Request{Op: OpGet, Keys: []core.Key{core.Key(8 * (id + 1))}})
			if !pcs[i].dispatch(frame, arrived, obs.Nanotime(), 0) {
				t.Fatal("well-formed frame reported fatal")
			}
		}
	}
	for i, pc := range pcs {
		pc.runReads(arrived)
		for id, rs := range readResponses(t, &outs[i], window) {
			if rs.Status != StatusOK || rs.Lookups[0].TID != core.TID(id+1) {
				t.Fatalf("connection %d: GET %d answered %+v", i, id, rs)
			}
		}
	}
}

// TestBurstWaitAttribution pins what decode measures: a GET behind a
// large SCAN in its burst spends the scan's time in burst_wait, and
// only its own decoding in decode.
func TestBurstWaitAttribution(t *testing.T) {
	const n = 70_000
	metrics := obs.NewMetrics()
	srv, _ := startServer(t, n, ServerConfig{Metrics: metrics})
	var out bytes.Buffer
	pc := newPconn(srv, &out, 1, nil)
	arrived, startNS := time.Now(), obs.Nanotime()
	for id, req := range []*Request{
		{Op: OpScan, Start: 0, End: core.Key(8 * n), Limit: MaxScanRows},
		{Op: OpGet, Keys: []core.Key{8}},
	} {
		frame, _ := AppendRequest(nil, uint32(id), req)
		if !pc.dispatch(frame, arrived, startNS, 0) {
			t.Fatal("well-formed frame reported fatal")
		}
	}
	pc.runReads(arrived)
	readResponses(t, &out, 2)
	wait := stageSnapshot(metrics, core.OpSearch, obs.StageBurstWait)
	decode := stageSnapshot(metrics, core.OpSearch, obs.StageDecode)
	scan := stageSnapshot(metrics, core.OpScan, obs.StageExec)
	if wait.Count != 1 || wait.SumNS < scan.SumNS || wait.SumNS <= decode.SumNS {
		t.Fatalf("GET behind a %dns scan: burst_wait %+v, decode %+v", scan.SumNS, wait, decode)
	}
}

// TestBurstDeadline drives the burst path with an arrival time in the
// past: the expired read answers StatusDeadline, the one without a
// deadline is still served.
func TestBurstDeadline(t *testing.T) {
	srv, _ := startServer(t, 100, ServerConfig{})
	var out bytes.Buffer
	pc := newPconn(srv, &out, 1, nil)
	arrived := time.Now().Add(-time.Second)
	for id, req := range []*Request{
		{Op: OpGet, Keys: []core.Key{8}, DeadlineMS: 5},
		{Op: OpGet, Keys: []core.Key{16}},
	} {
		frame, _ := AppendRequest(nil, uint32(id), req)
		if !pc.dispatch(frame, arrived, obs.Nanotime(), 0) {
			t.Fatal("well-formed frame reported fatal")
		}
	}
	pc.runReads(arrived)
	got := readResponses(t, &out, 2)
	if got[0].Status != StatusDeadline {
		t.Fatalf("expired GET answered %+v", got[0])
	}
	if got[1].Status != StatusOK || got[1].Lookups[0].TID != 2 {
		t.Fatalf("GET without a deadline answered %+v", got[1])
	}
	if st := srv.Stats(); st.Expired != 1 {
		t.Fatalf("expired = %d, want 1", st.Expired)
	}
}

// countingWriter counts the writes a connection makes: each is one
// flush of its buffered responses.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestBurstReadsBeforeWrites drives one burst of writes followed by
// reads through the connection's burst loop: every request is
// answered, every read before any write, and the burst leaves in two
// writes to the socket — the reads' flush, then the writes' once their
// shard writers answered — or in one when it has only reads or only
// writes.
func TestBurstReadsBeforeWrites(t *testing.T) {
	srv, _ := startServer(t, 100, ServerConfig{})
	for _, tc := range []struct{ writes, reads, flushes int }{{3, 5, 2}, {0, 5, 1}, {3, 0, 1}} {
		var out countingWriter
		pc := newPconn(srv, &out, 1, nil)
		var reqs []*Request
		for i := 0; i < tc.writes; i++ {
			req := &Request{Op: OpDel, Keys: []core.Key{core.Key(8 * (50 + i))}}
			if i%2 == 0 { // two pairs, most likely in two shards: a fanned-out write
				req = &Request{Op: OpPut, Pairs: []core.Pair{{Key: core.Key(1001 + i), TID: 1}, {Key: core.Key(2001 + i), TID: 2}}}
			}
			reqs = append(reqs, req)
		}
		for i := 0; i < tc.reads; i++ {
			reqs = append(reqs, &Request{Op: OpGet, Keys: []core.Key{core.Key(8 * (i + 1))}})
		}
		arrived := time.Now()
		for id, req := range reqs {
			frame, _ := AppendRequest(nil, uint32(id), req)
			if !pc.dispatch(frame, arrived, obs.Nanotime(), 0) {
				t.Fatal("well-formed frame reported fatal")
			}
		}
		pc.runReads(arrived)
		pc.runWrites(arrived)
		var frame []byte
		seen := map[uint32]bool{}
		for len(seen) < len(reqs) {
			var err error
			if frame, err = ReadFrame(&out, frame); err != nil {
				t.Fatalf("%+v: after %d of %d responses: %v", tc, len(seen), len(reqs), err)
			}
			id, rs, err := DecodeResponse(frame)
			if err != nil {
				t.Fatal(err)
			}
			if seen[id] || int(id) >= len(reqs) {
				t.Fatalf("%+v: response to unknown or answered request %d", tc, id)
			}
			seen[id] = true
			if rs.Status != StatusOK {
				t.Fatalf("%+v: %s answered %+v", tc, reqs[id].Op, rs)
			}
			if reqs[id].Op == OpGet {
				for w := 0; w < tc.writes; w++ {
					if seen[uint32(w)] {
						t.Fatalf("%+v: GET %d answered after write %d", tc, id, w)
					}
				}
			}
		}
		if out.writes != tc.flushes {
			t.Fatalf("%+v: the burst left in %d writes, want %d", tc, out.writes, tc.flushes)
		}
	}
}

// TestFrameReader covers the cases the burst loop leans on: frames in
// hand are returned without touching the connection, a partial frame
// is not, and a frame larger than the buffer is read whole.
func TestFrameReader(t *testing.T) {
	frame := func(n int, fill byte) []byte {
		return append(appendU32(nil, uint32(n)), bytes.Repeat([]byte{fill}, n)...)
	}
	big := frame(100, 'c')
	in := append(append(frame(3, 'a'), frame(5, 'b')...), big...)
	// 16 is bufio's minimum size: the two small frames arrive in the
	// first read, the third does not fit the buffer at all.
	fr := frameReader{br: bufio.NewReaderSize(bytes.NewReader(in), 16)}
	for i, want := range []struct {
		block bool
		n     int
	}{{true, 3}, {false, 5}, {false, -1}, {true, 100}, {false, -1}} {
		got, err := fr.next(want.block)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if want.n < 0 {
			if got != nil {
				t.Fatalf("step %d: non-blocking read returned %d bytes, want none", i, len(got))
			}
			continue
		}
		if len(got) != want.n {
			t.Fatalf("step %d: frame of %d bytes, want %d", i, len(got), want.n)
		}
	}
	if _, err := fr.next(true); err == nil {
		t.Fatal("read past the end succeeded")
	}
	over := frameReader{br: bufio.NewReader(bytes.NewReader(appendU32(nil, MaxFrame+1)))}
	if _, err := over.next(true); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// deadConn is a connection that accepts no bytes.
type deadConn struct {
	net.Conn
	deadline time.Time
	closed   bool
}

func (c *deadConn) SetWriteDeadline(t time.Time) error { c.deadline = t; return nil }
func (c *deadConn) Write([]byte) (int, error)          { return 0, io.ErrClosedPipe }
func (c *deadConn) Close() error                       { c.closed = true; return nil }

// TestStallWriter pins what keeps a peer that stopped reading from
// holding its connection's goroutine: every write carries a deadline,
// and a failed one closes the connection so its read loop ends too.
func TestStallWriter(t *testing.T) {
	c := &deadConn{}
	if _, err := (stallWriter{c}).Write([]byte("x")); err == nil {
		t.Fatal("write to a dead connection succeeded")
	}
	if !c.closed || time.Until(c.deadline) <= 0 || time.Until(c.deadline) > writeStall {
		t.Fatalf("closed = %v, deadline in %v; want closed with a deadline within %v", c.closed, time.Until(c.deadline), writeStall)
	}
}
