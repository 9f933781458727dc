package serve

// Request-lifecycle tracing for the serving pipeline (DESIGN.md §12).
//
// Every request carries a pooled obs.Span that is stamped at the fixed
// pipeline stages (frame read, burst wait, decode, shard-queue wait,
// WAL append, WAL fsync, backend apply, ack wait, read execution,
// connection write). The deltas feed three sinks:
//
//   - per-stage × per-op-class histograms in the shared obs.Metrics
//     (Prometheus via the admin endpoint, and the STATS payload) —
//     always on;
//   - a sampled slow-request log: requests whose server-side total
//     crosses SlowThreshold are logged through slog.Default() with the
//     full stage breakdown, at most slowPerSec lines per second;
//   - an optional Chrome trace (obs.TraceWriter): each request
//     renders as back-to-back stage slices on its connection's
//     timeline, loadable at ui.perfetto.dev.
//
// The hot path allocates nothing (spans are pooled) and a stage stamp
// is one monotonic clock read plus one atomic add.

import (
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"pbtree/internal/core"
	"pbtree/internal/obs"
)

// LifecycleConfig configures the optional sinks of request-lifecycle
// tracing (ServerConfig.Lifecycle). The zero value records the stage
// histograms only.
type LifecycleConfig struct {
	// SlowThreshold, when positive, enables the slow-request log:
	// requests whose server-side total (decode through connection
	// write) meets the threshold are logged with their full stage
	// breakdown.
	SlowThreshold time.Duration

	// Trace, when non-nil, receives a Chrome trace-event stream of
	// every traced request (one slice per stage, one timeline per
	// connection). The stream is terminated when the server shuts
	// down; the caller owns and closes the underlying writer.
	Trace io.Writer
}

const (
	// slowPerSec bounds the slow-request log rate in lines per second.
	slowPerSec = 10

	// traceEvents bounds the number of trace events emitted, so an
	// unattended server cannot grow the trace without bound.
	traceEvents = 100_000
)

// lifecycle is the server's span clock: it owns the span pool, the
// slow-request logger and the optional Chrome trace.
type lifecycle struct {
	metrics *obs.Metrics
	slowNS  int64
	conns   atomic.Uint64
	pool    sync.Pool

	// Slow-log rate limiting: a one-second window with an atomic
	// line counter.
	slowWindow atomic.Int64 // window start, obs.Nanotime
	slowCount  atomic.Int64 // lines logged in the window

	// Chrome trace state, guarded by traceMu (trace emission is the
	// sampled slow path).
	traceMu   sync.Mutex
	trace     *obs.TraceWriter
	traceLeft int
	traceBase int64
}

// newLifecycle builds the span clock.
func newLifecycle(cfg LifecycleConfig, m *obs.Metrics) *lifecycle {
	lc := &lifecycle{
		metrics: m,
		slowNS:  int64(cfg.SlowThreshold),
	}
	lc.pool.New = func() any { return new(obs.Span) }
	if cfg.Trace != nil {
		lc.trace = obs.NewTraceWriter(cfg.Trace)
		lc.traceLeft = traceEvents
		lc.traceBase = obs.Nanotime()
	}
	return lc
}

// nextConn hands out connection sequence numbers (trace timeline IDs).
func (lc *lifecycle) nextConn() uint64 { return lc.conns.Add(1) }

// span takes a reset span from the pool and starts its clock at
// startNS (an obs.Nanotime value).
func (lc *lifecycle) span(conn uint64, startNS int64) *obs.Span {
	sp := lc.pool.Get().(*obs.Span)
	sp.Begin(startNS)
	sp.Conn = conn
	return sp
}

// drop returns an unobserved span to the pool (requests refused
// before they execute).
func (lc *lifecycle) drop(sp *obs.Span) { lc.pool.Put(sp) }

// finish closes the span of a request whose response has just been
// written: it stamps the write stage, finalizes the span, feeds the
// histograms, and runs the sampled sinks (slow log, Chrome trace).
// Spans whose Op is still OpNone (STATS, HELLO, rejected or expired
// requests) are dropped unobserved so completed-request attribution
// stays clean.
func (lc *lifecycle) finish(sp *obs.Span) {
	if sp.Op == core.OpNone {
		lc.pool.Put(sp)
		return
	}
	sp.Mark(obs.StageWrite)
	total := sp.Finalize()
	lc.metrics.ObserveSpan(sp, total)
	if lc.slowNS > 0 && total >= lc.slowNS && lc.allowSlow() {
		lc.logSlow(sp, total)
	}
	if lc.trace != nil {
		lc.emitTrace(sp, total)
	}
	lc.pool.Put(sp)
}

// allowSlow is the slow-log rate limiter: at most slowPerSec lines
// per one-second window, decided lock-free.
func (lc *lifecycle) allowSlow() bool {
	now := obs.Nanotime()
	win := lc.slowWindow.Load()
	if now-win >= int64(time.Second) {
		// Roll the window; the winner of the CAS resets the counter.
		if lc.slowWindow.CompareAndSwap(win, now) {
			lc.slowCount.Store(0)
		}
	}
	return lc.slowCount.Add(1) <= slowPerSec
}

// logSlow emits one structured slow-request record with the stage
// breakdown in microseconds.
func (lc *lifecycle) logSlow(sp *obs.Span, total int64) {
	attrs := make([]any, 0, 2*int(obs.NumStages)+8)
	attrs = append(attrs,
		slog.String("op", sp.Op.String()),
		slog.Uint64("conn", sp.Conn),
		slog.Uint64("req", uint64(sp.Req)),
		slog.Int64("total_us", total/1e3),
	)
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		if ns := sp.StageNS(st); ns > 0 {
			attrs = append(attrs, slog.Int64(st.String()+"_us", ns/1e3))
		}
	}
	slog.Warn("slow request", attrs...)
}

// emitTrace renders one request as Chrome trace slices: an enclosing
// op slice plus one slice per nonzero stage, laid back-to-back from
// the span's start on the connection's timeline. Stage placement is
// by pipeline order, not measured start offsets — durations are
// exact, positions are the canonical order.
func (lc *lifecycle) emitTrace(sp *obs.Span, total int64) {
	lc.traceMu.Lock()
	defer lc.traceMu.Unlock()
	if lc.traceLeft <= 0 {
		return
	}
	tid := int(sp.Conn)
	ts := uint64(sp.StartNS()-lc.traceBase) / 1e3
	args := map[string]any{"req": sp.Req}
	lc.trace.Slice(sp.Op.String(), 1, tid, ts, uint64(total)/1e3, args)
	lc.traceLeft--
	cursor := ts
	for st := obs.StageDecode; st < obs.NumStages && lc.traceLeft > 0; st++ {
		ns := sp.StageNS(st)
		if ns <= 0 {
			continue
		}
		durUS := uint64(ns) / 1e3
		lc.trace.Slice(st.String(), 1, tid, cursor, durUS, nil)
		cursor += durUS
		lc.traceLeft--
	}
}

// closeTrace terminates the Chrome trace stream (called once, at
// server shutdown). The underlying writer stays open for the caller.
func (lc *lifecycle) closeTrace() error {
	if lc.trace == nil {
		return nil
	}
	lc.traceMu.Lock()
	defer lc.traceMu.Unlock()
	return lc.trace.Close()
}
