package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"pbtree/internal/core"
	"pbtree/internal/obs"
)

// ServerConfig configures the TCP front end.
type ServerConfig struct {
	// Addr is the listen address, e.g. "127.0.0.1:7070". ":0" picks a
	// free port (see Server.Addr).
	Addr string

	// CursorTimeout reclaims streaming-scan cursors (PROTOCOL.md §10)
	// that have not seen a SCANNEXT/SCANCLOSE for this long: the
	// snapshots they pin are released and later requests against the
	// cursor answer StatusNotFound. Zero selects 30s.
	CursorTimeout time.Duration

	// Metrics is the registry the server records into: per-operation
	// wall-clock latencies (GET/MGET as OpSearch, SCAN as OpScan, PUT
	// as OpInsert, DEL as OpDelete), the lifecycle grid and every
	// serving counter — STATS and /metrics read the same cells. Nil
	// selects a private registry; share one with StoreConfig.Metrics
	// to see the durability counters beside them.
	Metrics *obs.Metrics

	// Lifecycle configures the sinks of request-lifecycle stage
	// tracing beyond the per-stage latency histograms, which are always
	// recorded into Metrics: the slow-request log and the Chrome trace
	// export (lifecycle.go, DESIGN.md §12).
	Lifecycle LifecycleConfig

	// Repl, when non-nil, handles REPLICATE requests (the replication
	// subsystem's wire entry point — internal/repl wires its Node
	// here). Nil answers REPLICATE with StatusErr.
	Repl ReplHandler
}

// ReplHandler answers one decoded REPLICATE exchange. REPLICATE
// requests run on their connection's goroutine, as every request does,
// and stay out of the op-latency metrics (a held FETCH would pollute
// the client histograms); they still count in the STATS op table.
type ReplHandler interface {
	// HandleReplicate executes one replication request and returns the
	// full wire response (so fencing can answer StatusFenced with the
	// rival epoch).
	HandleReplicate(r *ReplReq) *Response
}

// window is the most frames the server takes from one read: a burst.
// A connection's goroutine answers its burst before it reads again, so
// the window is also the most requests of one connection the server
// holds at once — the bound on what a connection can ask of the server
// (DESIGN.md §10). HELLO and STATS report it.
const window = 32

// retryAfter is the backoff hint sent with every StatusRetry: a full
// shard queue or the per-connection cursor cap.
const retryAfter = 5 * time.Millisecond

// Server serves a Store over TCP with the wire protocol of wire.go
// (normative spec: PROTOCOL.md).
type Server struct {
	st  *Store
	cfg ServerConfig

	ln net.Listener
	lc *lifecycle

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	// Streaming-scan cursor bookkeeping: every connection's cursor set
	// registers here so the reaper can walk them (scansrv.go).
	curMu      sync.Mutex
	curSets    map[*connCursors]struct{}
	reaperStop chan struct{}

	wg      sync.WaitGroup
	started time.Time
}

// reqCounter is the registry cell counting requests of one wire op.
func reqCounter(op Op) obs.Counter { return obs.ReqGet + obs.Counter(op-OpGet) }

// ServerStats is the JSON payload of a STATS response.
type ServerStats struct {
	UptimeMS int64             `json:"uptime_ms"`    // ms since the server started
	Ops      map[string]uint64 `json:"ops"`          // completed requests per op name
	Rejected uint64            `json:"rejected"`     // requests answered StatusRetry (shard queue full, cursor cap)
	Expired  uint64            `json:"expired"`      // requests whose deadline passed before execution
	BadReqs  uint64            `json:"bad_requests"` // malformed frames answered StatusErr
	Conns    int               `json:"conns"`        // currently open connections
	Window   int               `json:"window"`       // frames taken per read of a connection
	Cursors  CursorStats       `json:"cursors"`      // streaming-scan cursor occupancy
	Store    StoreStats        `json:"store"`        // per-shard store counters

	// Stages and StageTotals carry the request-lifecycle attribution
	// (empty maps before the first traced request, never null).
	// Stages is keyed by op class then stage name.
	Stages map[string]map[string]StageStats `json:"server_stages"`

	// StageTotals holds each op class's end-to-end server-side latency
	// (request decoded through response written).
	StageTotals map[string]StageStats `json:"server_stage_totals"`
}

// StageStats summarizes one lifecycle histogram for the STATS payload.
type StageStats struct {
	Count uint64 `json:"count"`  // samples observed
	SumNS int64  `json:"sum_ns"` // accumulated nanoseconds across samples
	P50NS int64  `json:"p50_ns"` // median latency (bucket midpoint)
	P99NS int64  `json:"p99_ns"` // p99 latency (bucket midpoint)
}

// NewServer wraps a store; call Start to begin listening. Every
// request runs on its connection's goroutine (DESIGN.md §8).
func NewServer(st *Store, cfg ServerConfig) *Server {
	if cfg.CursorTimeout <= 0 {
		cfg.CursorTimeout = 30 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewMetrics()
	}
	return &Server{
		st:      st,
		cfg:     cfg,
		lc:      newLifecycle(cfg.Lifecycle, cfg.Metrics),
		conns:   make(map[net.Conn]struct{}),
		curSets: make(map[*connCursors]struct{}),
	}
}

// Start binds the listener and launches the accept loop.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.started = time.Now()
	s.reaperStop = make(chan struct{})
	s.wg.Add(1)
	go s.reapCursors()
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// acceptLoop accepts connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// Shutdown drains gracefully: stop accepting, let in-flight requests
// finish, then close connections. If the drain exceeds timeout,
// connections are closed forcibly.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Expire every connection's pending read: idle request loops exit
	// immediately, while requests already executing are unaffected —
	// they finish, write their response, and exit on the next read.
	now := time.Now()
	for c := range s.conns {
		c.SetReadDeadline(now)
	}
	s.mu.Unlock()
	close(s.reaperStop)
	err := s.ln.Close()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		err = errors.Join(err, fmt.Errorf("serve: shutdown forced after %v", timeout))
	}
	err = errors.Join(err, s.lc.closeTrace())
	return err
}

// serveConn owns one connection from accept to close: it registers
// the connection's streaming-scan cursor set, runs the request loop,
// and releases whatever the connection still holds.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	cs := s.registerCursors()
	defer s.releaseCursors(cs)
	s.servePipelined(c, s.lc.nextConn(), cs)
}

// connBufSize is the fixed size of a connection's read and write
// buffers: what one read(2) delivers is a burst, and a burst's
// responses leave in one write(2).
const connBufSize = 8 << 10

// maxGroupKeys bounds the keys of one group search, and with it the
// scratch a connection keeps between bursts; a larger MGET runs alone.
const maxGroupKeys = 4096

// writeStall is how long a peer may accept no response bytes before its
// connection is dropped, so a peer that stops reading cannot hold its
// connection's goroutine, and the cursors it holds, for good.
const writeStall = 10 * time.Second

// stallWriter is a connection whose every write(2) is bounded by
// writeStall; a failed write closes it, which also ends its read loop.
type stallWriter struct{ c net.Conn }

func (w stallWriter) Write(p []byte) (int, error) {
	w.c.SetWriteDeadline(time.Now().Add(writeStall))
	n, err := w.c.Write(p)
	if err != nil {
		w.c.Close()
	}
	return n, err
}

// pconn is one connection, owned by its goroutine: the goroutine
// answers every request of the connection and is the only writer of
// its socket. The one hand-off is a write's, to its shard writers.
type pconn struct {
	s      *Server
	cs     *connCursors
	connID uint64

	// The burst in hand: the reads waiting for one group search and the scratch they reuse, and the writes enqueued to
	// their shard writers, awaited once the reads are answered.
	reads   []burstRead
	keys    []core.Key // the reads' keys, concatenated in request order
	lookups []Lookup   // aligned with keys
	scratch mgetScratch
	writes  []burstWrite

	bw   *bufio.Writer
	enc  []byte // response frame scratch
	dead bool   // a write failed: responses are dropped from here on
}

func newPconn(s *Server, w io.Writer, connID uint64, cs *connCursors) *pconn {
	return &pconn{s: s, cs: cs, connID: connID, bw: bufio.NewWriterSize(w, connBufSize)}
}

// burstRead is one GET or MGET awaiting its burst's search.
type burstRead struct {
	id    uint32
	nkeys int
	get   bool // GET: a miss is StatusNotFound, not a lookup
	sp    *obs.Span
}

// burstWrite is one PUT or DEL its shard writers hold.
type burstWrite struct {
	id  uint32
	p   pending
	err error // the outcome, once awaited
	sp  *obs.Span
}

// write appends one response frame to the connection's buffer.
func (pc *pconn) write(id uint32, resp *Response) {
	if pc.dead {
		return
	}
	frame, err := appendResponseFrame(pc.enc[:0], id, resp)
	if err != nil { // response exceeded wire bounds; report instead
		frame, _ = appendResponseFrame(pc.enc[:0], id, &Response{Status: StatusErr, Err: err.Error()})
	}
	pc.enc = frame
	_, err = pc.bw.Write(frame)
	pc.dead = err != nil
}

// flush sends whatever is buffered, in one write(2) when it fits.
func (pc *pconn) flush() {
	if !pc.dead && pc.bw.Buffered() > 0 {
		pc.dead = pc.bw.Flush() != nil
	}
}

// dispatch routes one frame of a burst: reads queue for the burst's
// group search, writes are enqueued to their shard writers and awaited
// at the burst's end, everything else runs here and now. It reports
// false on a frame too short to answer, which is connection-fatal
// (PROTOCOL.md §5).
func (pc *pconn) dispatch(frame []byte, arrived time.Time, startNS, readNS int64) bool {
	s := pc.s
	if len(frame) < 4 {
		return false
	}
	// Every span of a burst starts when the burst arrived: the time a
	// request spent behind the frames dispatched before it is its
	// burst_wait, and decode is its own decoding only.
	sp := s.lc.span(pc.connID, startNS)
	sp.Add(obs.StageRead, readNS)
	sp.Mark(obs.StageBurstWait)
	id, req, err := DecodeRequest(frame)
	if err != nil {
		s.lc.drop(sp)
		s.cfg.Metrics.Add(obs.BadRequests, 1)
		pc.write(id, &Response{Status: StatusErr, Err: err.Error()})
		return true
	}
	if req.Op == OpHello { // a version check, wherever it appears
		s.lc.drop(sp)
		s.cfg.Metrics.Add(obs.ReqHello, 1)
		pc.write(id, &Response{Status: StatusOK, Version: ProtoVersion, Window: window})
		return true
	}
	sp.Req = id
	sp.Mark(obs.StageDecode)
	if resp := s.begin(req, arrived, sp); resp != nil {
		pc.write(id, resp)
		s.lc.drop(sp)
		return true
	}
	switch req.Op {
	case OpGet, OpMGet:
		if len(pc.reads) > 0 && len(pc.keys)+len(req.Keys) > maxGroupKeys {
			pc.runReads(arrived)
		}
		pc.reads = append(pc.reads, burstRead{id: id, nkeys: len(req.Keys), get: req.Op == OpGet, sp: sp})
		pc.keys = append(pc.keys, req.Keys...)
	case OpPut, OpDel:
		pc.writes = append(pc.writes, burstWrite{id: id, p: s.st.submit(nil, req.Pairs, req.Keys, sp), sp: sp})
	default: // SCAN, the streaming-scan ops, STATS, REPLICATE
		if req.Op == OpReplicate {
			// A caught-up FETCH may be held briefly, which delays only
			// this connection (a follower keeps one per shard): the
			// reads already in hand leave first, the answer right after.
			pc.runReads(arrived)
		}
		start := time.Now()
		resp := s.execute(req, sp, pc.cs)
		if sp.Op != core.OpNone {
			s.cfg.Metrics.Observe(sp.Op, time.Since(start))
		}
		pc.write(id, resp)
		s.lc.finish(sp)
		if req.Op == OpReplicate {
			pc.flush()
		}
	}
	return true
}

// runReads executes the queued reads as one pass over the store — keys
// grouped by shard, one snapshot and one group search per shard — and
// answers them, flushing with them whatever else is buffered.
func (pc *pconn) runReads(arrived time.Time) {
	if len(pc.reads) == 0 {
		pc.flush()
		return
	}
	s := pc.s
	pc.lookups = grow(pc.lookups, len(pc.keys))
	s.st.mget(pc.keys, pc.lookups, &pc.scratch)
	took := time.Since(arrived)
	off := 0
	for _, r := range pc.reads {
		r.sp.Mark(obs.StageExec)
		resp := Response{Status: StatusOK, Lookups: pc.lookups[off : off+r.nkeys]}
		if r.get && !resp.Lookups[0].Found {
			resp = Response{Status: StatusNotFound}
		}
		off += r.nkeys
		pc.write(r.id, &resp)
	}
	pc.flush()
	for _, r := range pc.reads {
		s.lc.finish(r.sp)
		s.cfg.Metrics.Observe(core.OpSearch, took)
	}
	pc.reads, pc.keys = pc.reads[:0], pc.keys[:0]
	if cap(pc.lookups) > maxGroupKeys { // one oversized MGET must not size the connection for good
		pc.keys, pc.lookups, pc.scratch = nil, nil, mgetScratch{}
	}
}

// runWrites awaits the burst's writes in request order, once its reads
// have left, and answers them in one flush.
func (pc *pconn) runWrites(arrived time.Time) {
	if len(pc.writes) == 0 {
		return
	}
	s := pc.s
	for i := range pc.writes {
		pc.writes[i].err = s.st.await(pc.writes[i].p)
	}
	took := time.Since(arrived)
	for _, w := range pc.writes {
		w.sp.MarkResidual(obs.StageAckWait)
		resp := s.writeResult(w.err)
		if resp == nil {
			resp = &Response{Status: StatusOK}
			s.cfg.Metrics.Observe(w.sp.Op, took)
		} else {
			w.sp.Op = core.OpNone // rejected/failed: drop unobserved
		}
		pc.write(w.id, resp)
	}
	pc.flush()
	for _, w := range pc.writes {
		s.lc.finish(w.sp)
	}
	pc.writes = pc.writes[:0]
}

// servePipelined runs the request loop one burst at a time: block
// for a frame, take every further frame the same read delivered (up to
// window), answer the burst's reads with one group search and flush,
// then await its writes and flush, and only then block again. No wait
// is added to find more work: a lone GET costs one read(2), one
// write(2) and no goroutine hand-off; a deep pipeline is grouped by
// its own depth.
func (s *Server) servePipelined(c net.Conn, connID uint64, cs *connCursors) {
	pc := newPconn(s, stallWriter{c}, connID, cs)
	fr := frameReader{br: bufio.NewReaderSize(c, connBufSize)}
	for ok := true; ok; {
		waitStart := obs.Nanotime()
		frame, err := fr.next(true)
		if err != nil {
			break // EOF, peer reset, oversized frame, or shutdown read deadline
		}
		arrived, startNS := time.Now(), obs.Nanotime()
		// Frame-read time includes client think time and is kept out of
		// the server-side total (stage.go); the burst's first request
		// carries it.
		readNS := startNS - waitStart
		for n := 1; frame != nil; n++ {
			ok = pc.dispatch(frame, arrived, startNS, readNS)
			if !ok || n == window {
				break
			}
			readNS = 0
			frame, err = fr.next(false)
			ok = err == nil
		}
		pc.runReads(arrived)
		pc.runWrites(arrived)
	}
}

// begin is the gate every request passes before it executes: the
// deadline, the op counter and the span's op class. A non-nil response
// (StatusDeadline) ends the request there; such a request leaves the
// span's Op at OpNone so it is dropped unobserved.
func (s *Server) begin(req *Request, arrived time.Time, sp *obs.Span) *Response {
	// Deadline: don't burn work on an answer the client has abandoned.
	if req.DeadlineMS != 0 && time.Since(arrived) > time.Duration(req.DeadlineMS)*time.Millisecond {
		s.cfg.Metrics.Add(obs.Expired, 1)
		return &Response{Status: StatusDeadline}
	}
	s.cfg.Metrics.Add(reqCounter(req.Op), 1)
	if req.Op != OpStats && req.Op != OpReplicate {
		sp.Op = metricOpOf(req.Op)
	}
	return nil
}

// metricOpOf maps wire ops onto the index-operation metrics. The
// streaming-scan ops record as OpScan: each SCANNEXT is one scan-class
// unit of work in the histograms.
func metricOpOf(op Op) core.OpKind {
	switch op {
	case OpScan, OpScanOpen, OpScanNext, OpScanClose:
		return core.OpScan
	case OpPut:
		return core.OpInsert
	case OpDel:
		return core.OpDelete
	default:
		return core.OpSearch
	}
}

// execute runs a request that neither reads a point nor writes: the scans, STATS and REPLICATE. The scans mark StageExec.
func (s *Server) execute(req *Request, sp *obs.Span, cs *connCursors) *Response {
	switch req.Op {
	case OpScan:
		pairs, err := s.st.scan(req.Start, req.End, int(req.Limit))
		sp.Mark(obs.StageExec)
		if err != nil {
			return &Response{Status: StatusErr, Err: err.Error()}
		}
		if pairs == nil {
			pairs = []core.Pair{}
		}
		return &Response{Status: StatusOK, Pairs: pairs}
	case OpScanOpen, OpScanNext, OpScanClose:
		resp := s.executeScan(req, cs)
		sp.Mark(obs.StageExec)
		return resp
	case OpStats:
		blob, err := json.Marshal(s.Stats())
		if err != nil {
			return &Response{Status: StatusErr, Err: err.Error()}
		}
		return &Response{Status: StatusOK, Stats: blob}
	case OpReplicate:
		if s.cfg.Repl == nil {
			return &Response{Status: StatusErr, Err: "serve: replication not configured"}
		}
		if req.Repl == nil {
			return &Response{Status: StatusErr, Err: "serve: REPLICATE without payload"}
		}
		return s.cfg.Repl.HandleReplicate(req.Repl)
	}
	return &Response{Status: StatusErr, Err: fmt.Sprintf("serve: unhandled op %s", req.Op)}
}

// writeResult maps store write errors onto wire statuses: a write
// refused before any part of it was enqueued (ErrOverloaded) had no
// effect and is retryable; everything else, a partly enqueued write
// (ErrPartialWrite) included, is an error.
func (s *Server) writeResult(err error) *Response {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrOverloaded):
		return s.retry()
	}
	return &Response{Status: StatusErr, Err: err.Error()}
}

// retry counts a rejection and answers it StatusRetry with the hint.
func (s *Server) retry() *Response {
	s.cfg.Metrics.Add(obs.Rejected, 1)
	return &Response{Status: StatusRetry, RetryAfterMS: uint32(retryAfter / time.Millisecond)}
}

// Stats assembles the payload a STATS request returns — the admin
// plane's /statsz endpoint and in-process monitors use it without a
// wire round trip.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	nconns := len(s.conns)
	s.mu.Unlock()
	m := s.cfg.Metrics
	ops := make(map[string]uint64)
	for op := OpGet; op <= OpScanClose; op++ {
		if n := m.Load(reqCounter(op)); n > 0 {
			ops[op.String()] = uint64(n)
		}
	}
	stages := make(map[string]map[string]StageStats)
	totals := make(map[string]StageStats)
	m.WalkStages(func(op core.OpKind, st obs.Stage, h *obs.HistogramSnapshot) {
		stats := StageStats{
			Count: h.Count,
			SumNS: int64(h.SumNS),
			P50NS: int64(h.Quantile(0.50)),
			P99NS: int64(h.Quantile(0.99)),
		}
		if st == obs.StageTotal {
			totals[op.String()] = stats
			return
		}
		if stages[op.String()] == nil {
			stages[op.String()] = make(map[string]StageStats)
		}
		stages[op.String()][st.String()] = stats
	})
	return ServerStats{
		UptimeMS:    time.Since(s.started).Milliseconds(),
		Ops:         ops,
		Rejected:    uint64(m.Load(obs.Rejected)),
		Expired:     uint64(m.Load(obs.Expired)),
		BadReqs:     uint64(m.Load(obs.BadRequests)),
		Conns:       nconns,
		Window:      window,
		Cursors:     s.cursorStats(),
		Store:       s.st.Stats(),
		Stages:      stages,
		StageTotals: totals,
	}
}
