package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
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
// requests run on the connection's read goroutine and bypass
// admission (replication must make progress exactly when the data
// plane is saturated) and the op-latency metrics (a held FETCH would
// pollute the client histograms); they still count in the STATS op
// table.
type ReplHandler interface {
	// HandleReplicate executes one replication request and returns the
	// full wire response (so fencing can answer StatusFenced with the
	// rival epoch).
	HandleReplicate(r *ReplReq) *Response
}

// window is the pipeline depth of one connection: the server takes up
// to this many requests per read burst and keeps up to this many
// blocking requests (writes, scans) on the worker pool, answering in
// completion order. HELLO and STATS report it.
const window = 32

// Server serves a Store over TCP with the wire protocol of wire.go
// (normative spec: PROTOCOL.md).
type Server struct {
	st  *Store
	cfg ServerConfig

	ln       net.Listener
	adm      *admission
	lc       *lifecycle
	pool     *workerPool
	poolSize int // workers executing blocking requests (DESIGN.md §15)

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
	UptimeMS int64                  `json:"uptime_ms"`    // ms since the server started
	Ops      map[string]uint64      `json:"ops"`          // completed requests per op name
	Rejected uint64                 `json:"rejected"`     // admission rejections (all classes)
	Expired  uint64                 `json:"expired"`      // requests whose deadline passed before execution
	BadReqs  uint64                 `json:"bad_requests"` // malformed frames answered StatusErr
	Conns    int                    `json:"conns"`        // currently open connections
	Window   int                    `json:"window"`       // per-connection pipeline depth
	PoolSize int                    `json:"pool_size"`    // workers executing blocking requests
	Cursors  CursorStats            `json:"cursors"`      // streaming-scan cursor occupancy
	Budgets  map[string]BudgetStats `json:"budgets"`      // admission occupancy per class
	Store    StoreStats             `json:"store"`        // per-shard store counters

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

// NewServer wraps a store; call Start to begin listening.
//
// Each admission budget lets a healthy server take its steady load
// without refusing it: reads get 4x the shard count or one window per
// core (at least two), whichever is larger, so every core can have a
// full burst in hand; writes get 2x the shard count or one window;
// scans get 64 Ki rows. The shared worker pool has max(16,
// 4 x GOMAXPROCS) workers; GET and MGET run on their connection's read
// goroutine instead (DESIGN.md §8).
func NewServer(st *Store, cfg ServerConfig) *Server {
	if cfg.CursorTimeout <= 0 {
		cfg.CursorTimeout = 30 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewMetrics()
	}
	procs := runtime.GOMAXPROCS(0)
	reads, writes := max(4*st.Shards(), window*max(2, procs)), max(2*st.Shards(), window)
	return &Server{
		st:       st,
		cfg:      cfg,
		adm:      newAdmission(reads, writes, 64<<10, cfg.Metrics),
		lc:       newLifecycle(cfg.Lifecycle, cfg.Metrics),
		poolSize: max(16, 4*procs),
		conns:    make(map[net.Conn]struct{}),
		curSets:  make(map[*connCursors]struct{}),
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
	s.pool = newWorkerPool(s.poolSize, s.cfg.Metrics)
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
	s.pool.close()
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
// connection is dropped. Responses are flushed by whichever goroutine
// finished them, so a peer that stops reading must not pin pool workers.
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

// pconn is one connection. Its read goroutine answers GET, MGET and
// REPLICATE itself, everything else goes to the worker pool, and both
// complete through the mutex-guarded writer.
type pconn struct {
	s      *Server
	cs     *connCursors
	connID uint64

	// Read-goroutine state: the admitted reads of the burst in hand,
	// waiting for one group search, and the scratch they reuse.
	reads   []burstRead
	keys    []core.Key // the reads' keys, concatenated in request order
	lookups []Lookup   // aligned with keys
	scratch mgetScratch

	// slots bounds this connection's requests on the worker pool.
	slots chan struct{}

	mu      sync.Mutex // guards bw, enc, dead
	bw      *bufio.Writer
	enc     []byte       // response encoding scratch
	dead    bool         // a write failed: responses are dropped from here on
	waiting atomic.Int32 // pool completions queued on mu
}

func newPconn(s *Server, w io.Writer, connID uint64, cs *connCursors) *pconn {
	return &pconn{
		s: s, cs: cs, connID: connID,
		slots: make(chan struct{}, window),
		bw:    bufio.NewWriterSize(w, connBufSize),
	}
}

// burstRead is one admitted GET or MGET awaiting its burst's search.
type burstRead struct {
	id    uint32
	nkeys int
	get   bool // GET: a miss is StatusNotFound, not a lookup
	sp    *obs.Span
}

// write appends one response frame to the connection's buffer. Callers
// hold pc.mu.
func (pc *pconn) write(id uint32, resp *Response) {
	if pc.dead {
		return
	}
	payload, err := AppendResponse(pc.enc[:0], id, resp)
	if err != nil { // response exceeded wire bounds; report instead
		payload, _ = AppendResponse(pc.enc[:0], id, &Response{Status: StatusErr, Err: err.Error()})
	}
	pc.enc = payload
	pc.dead = WriteFrame(pc.bw, payload) != nil
}

// unlock ends a writer's turn: it flushes unless a pool completion is
// already queued on the lock, whose own unlock then flushes for both —
// so responses that finish together share one write(2), and nothing
// buffered is ever left without a flusher.
func (pc *pconn) unlock() {
	if pc.waiting.Load() == 0 && !pc.dead && pc.bw.Buffered() > 0 {
		pc.dead = pc.bw.Flush() != nil
	}
	pc.mu.Unlock()
}

// complete answers a request executed on the worker pool.
func (pc *pconn) complete(id uint32, resp *Response, sp *obs.Span) {
	pc.waiting.Add(1)
	pc.mu.Lock()
	pc.waiting.Add(-1)
	sp.Mark(obs.StageRespQueue)
	pc.write(id, resp)
	pc.unlock()
	pc.s.lc.finish(sp)
}

// reply answers a request from the read goroutine without executing
// it (malformed, HELLO, refused, expired). The burst's end flushes.
func (pc *pconn) reply(id uint32, resp *Response) {
	pc.mu.Lock()
	pc.write(id, resp)
	pc.mu.Unlock()
}

// dispatch routes one frame of a burst: reads queue for the burst's
// group search, REPLICATE is answered in place, blocking ops go to the
// pool. It reports false on a frame too short to answer, which is
// connection-fatal (PROTOCOL.md §5).
func (pc *pconn) dispatch(frame []byte, arrived time.Time, startNS, readNS int64) bool {
	s := pc.s
	if len(frame) < 4 {
		return false
	}
	id, req, err := DecodeRequest(frame)
	if err != nil {
		s.cfg.Metrics.Add(obs.BadRequests, 1)
		pc.reply(id, &Response{Status: StatusErr, Err: err.Error()})
		return true
	}
	if req.Op == OpHello { // a version check, wherever it appears
		s.cfg.Metrics.Add(obs.ReqHello, 1)
		pc.reply(id, &Response{Status: StatusOK, Version: ProtoVersion, Window: window})
		return true
	}
	// Every span of a burst starts when the burst arrived, so the time
	// a request spent behind the ones decoded before it counts.
	sp := s.lc.span(pc.connID, startNS)
	sp.Req = id
	sp.Add(obs.StageRead, readNS)
	sp.Mark(obs.StageDecode)
	if req.Op == OpReplicate {
		// Answered here, as reads are, never on the pool: a follower's
		// FETCH is what releases the pool workers that synchronous
		// writes hold. No REPLICATE waits on a shard writer; a caught-up
		// FETCH may be held briefly, which delays only this connection
		// (a follower keeps one per shard), so the reads already in hand
		// are answered first.
		pc.runReads(arrived)
		resp := s.handle(req, arrived, sp, pc.cs)
		pc.mu.Lock()
		pc.write(id, resp)
		pc.unlock()
		s.lc.drop(sp)
		return true
	}
	if req.Op != OpGet && req.Op != OpMGet {
		// The slot wait and the pool's queue are attributed to the
		// admission stage by handle's first Mark. Reads already in hand
		// are answered before waiting for a slot, not after.
		select {
		case pc.slots <- struct{}{}:
		default:
			pc.runReads(arrived)
			pc.slots <- struct{}{}
		}
		s.pool.submit(poolTask{pc: pc, id: id, req: req, arrived: arrived, sp: sp})
		return true
	}
	if _, resp := s.begin(req, arrived, sp); resp != nil {
		pc.reply(id, resp)
		s.lc.drop(sp)
		return true
	}
	if len(pc.reads) > 0 && len(pc.keys)+len(req.Keys) > maxGroupKeys {
		pc.runReads(arrived)
	}
	pc.reads = append(pc.reads, burstRead{id: id, nkeys: len(req.Keys), get: req.Op == OpGet, sp: sp})
	pc.keys = append(pc.keys, req.Keys...)
	return true
}

// runReads executes the queued reads as one pass over the store — keys
// grouped by shard, one snapshot and one group search per shard — and
// buffers their responses. Each read held one token since begin.
func (pc *pconn) runReads(arrived time.Time) {
	if len(pc.reads) == 0 {
		return
	}
	s := pc.s
	pc.lookups = grow(pc.lookups, len(pc.keys))
	s.st.mget(pc.keys, pc.lookups, &pc.scratch)
	s.adm.release(grant{class: admRead, n: int64(len(pc.reads))})
	took := time.Since(arrived)
	pc.mu.Lock()
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
	pc.unlock()
	for _, r := range pc.reads {
		s.lc.finish(r.sp)
		s.cfg.Metrics.Observe(core.OpSearch, took)
	}
	pc.reads, pc.keys = pc.reads[:0], pc.keys[:0]
	if cap(pc.lookups) > maxGroupKeys { // one oversized MGET must not size the connection for good
		pc.keys, pc.lookups, pc.scratch = nil, nil, mgetScratch{}
	}
}

// servePipelined runs the request loop one burst at a time: block
// for a frame, take every further frame the same read delivered (up to
// window), answer the burst's reads with one group search on this
// goroutine, flush once, and only then block again. No wait is added to
// find more work: a lone GET costs one read(2), one write(2) and no
// goroutine hand-off; a deep pipeline is grouped by its own depth.
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
		pc.mu.Lock() // replies buffered since the last flush, if any, leave now
		pc.unlock()
	}
	// Reclaim every slot: this blocks until the pool has answered all
	// of this connection's requests, so nothing writes to c after the
	// caller closes it.
	for i := 0; i < window; i++ {
		pc.slots <- struct{}{}
	}
}

// begin is the gate every request passes before it executes, on
// either path: admission tokens, deadline, the op counter and the
// span's op class. A non-nil response (StatusRetry, StatusDeadline)
// ends the request there with no tokens held; such a request leaves
// the span's Op at OpNone so it is dropped unobserved.
func (s *Server) begin(req *Request, arrived time.Time, sp *obs.Span) (grant, *Response) {
	g, retry, ok := s.adm.admit(req)
	sp.Mark(obs.StageAdmission)
	if !ok {
		return g, s.retry(retry)
	}
	// Deadline: don't burn work on an answer the client has abandoned.
	if req.DeadlineMS != 0 && time.Since(arrived) > time.Duration(req.DeadlineMS)*time.Millisecond {
		s.adm.release(g)
		s.cfg.Metrics.Add(obs.Expired, 1)
		return grant{}, &Response{Status: StatusDeadline}
	}
	s.cfg.Metrics.Add(reqCounter(req.Op), 1)
	if req.Op != OpStats && req.Op != OpReplicate {
		sp.Op = metricOpOf(req.Op)
	}
	return g, nil
}

// handle admits and executes one decoded request, holding its tokens
// until the response is ready. cs is the owning connection's
// streaming-scan cursor set.
func (s *Server) handle(req *Request, arrived time.Time, sp *obs.Span, cs *connCursors) *Response {
	g, resp := s.begin(req, arrived, sp)
	if resp != nil {
		return resp
	}
	defer s.adm.release(g)
	if req.Op != OpReplicate {
		defer s.cfg.Metrics.Time(metricOpOf(req.Op))()
	}
	return s.execute(req, sp, cs)
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

// execute runs a decoded, admitted request against the store, on a
// pool worker or (REPLICATE) the read goroutine; GET and MGET never
// come here (dispatch answers them through runReads). The scans mark
// StageExec themselves; write ops are stamped by the shard writers
// (queue_wait, wal_append, wal_fsync, apply) via the span handed into
// the store, so execute only advances the clock past the blocking call
// with Touch.
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
	case OpPut, OpDel:
		callStart, stamped0 := obs.Nanotime(), sp.StoreStagesNS()
		err := s.st.write(nil, req.Pairs, req.Keys, sp)
		// The shard writers stamped queue/WAL/apply via Add; fold the
		// unstamped residual of the blocking call (partition setup, ack
		// wakeup latency, a synchronous follower wait) into apply and
		// advance the clock past it.
		sp.Add(obs.StageApply, obs.Nanotime()-callStart-(sp.StoreStagesNS()-stamped0))
		sp.Touch()
		if errResp := s.writeResult(err); errResp != nil {
			sp.Op = core.OpNone // rejected/failed: drop unobserved
			return errResp
		}
		return &Response{Status: StatusOK}
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

// writeResult maps store write errors onto wire statuses: overload
// becomes a retryable rejection with the write class's hint,
// everything else an error.
func (s *Server) writeResult(err error) *Response {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrOverloaded):
		return s.retry(retryAfter[admWrite])
	}
	return &Response{Status: StatusErr, Err: err.Error()}
}

// retry counts a rejection and answers it StatusRetry with the hint.
func (s *Server) retry(after time.Duration) *Response {
	s.cfg.Metrics.Add(obs.Rejected, 1)
	return &Response{Status: StatusRetry, RetryAfterMS: uint32(after / time.Millisecond)}
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
		PoolSize:    s.poolSize,
		Cursors:     s.cursorStats(),
		Budgets:     s.adm.stats(),
		Store:       s.st.Stats(),
		Stages:      stages,
		StageTotals: totals,
	}
}
