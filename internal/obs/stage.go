package obs

// Request-lifecycle stage attribution for the serving pipeline.
//
// The paper's core method is attribution: decompose each operation
// into named components to find where the time actually goes. The
// simulator side does that in cycles (Collector, the per-level stall
// tables); this file does it one layer up, in wall-clock nanoseconds,
// for the serving pipeline: every request carries a Span that is
// stamped at fixed pipeline stages (burst wait, decode,
// shard-queue wait, WAL append, WAL fsync, backend apply, ...), and
// the per-stage deltas feed per-stage × per-op-class Histograms in
// Metrics. The instrumentation is allocation-free past the pooled
// Span itself: a stage stamp is one monotonic clock read plus one
// atomic add.

import (
	"sync/atomic"
	"time"

	"pbtree/internal/core"
)

// Stage identifies one fixed point of the serving pipeline that a
// request passes through. The stages are ordered as a request
// experiences them; per-stage latency histograms are keyed by
// (operation class, stage).
type Stage int

// The pipeline stages, in request order (DESIGN.md §12).
const (
	// StageRead is the connection-frame read. It includes the time
	// spent waiting for the client to send anything at all, so it is
	// recorded for queue-depth diagnosis but excluded from the
	// request's server-side total and the attribution table.
	StageRead Stage = iota

	// StageBurstWait is the time from the arrival of a request's burst
	// until its connection's goroutine takes up its frame: the wait
	// behind the frames of the burst dispatched before it.
	StageBurstWait

	// StageDecode is wire-frame decoding.
	StageDecode

	// StageQueueWait is the time a mutation sat in its shard's
	// mutation queue before the shard writer picked it up.
	StageQueueWait

	// StageWALAppend is the WAL group-commit write (buffer build +
	// file write), excluding the fsync.
	StageWALAppend

	// StageWALFsync is the WAL fsync of the request's group commit.
	StageWALFsync

	// StageApply is the storage engine applying the mutation batch and
	// publishing the snapshot that makes it visible, up to the shard
	// writer's acknowledgement.
	StageApply

	// StageAckWait is a write's wait from its shard writers'
	// acknowledgement until its connection collects the outcome: behind
	// the burst's reads and earlier writes, and for a synchronous
	// follower. It is the write's elapsed time past decoding less the
	// writer-stamped stages (Span.MarkResidual).
	StageAckWait

	// StageExec is read-path execution: snapshot lookups, the group
	// search of a burst's GETs and MGETs, scans and merges.
	StageExec

	// StageWrite is response encoding plus the connection write (and
	// the flush, when this response triggered one).
	StageWrite

	// StageOther is the unattributed remainder: the request's
	// server-side total minus every named stage. Computed at span
	// finalization, clamped at zero (cross-shard stage times are
	// summed, so a multi-shard write's named stages can legitimately
	// exceed its wall-clock total). A large StageOther means the
	// instrumentation is missing a stage.
	StageOther

	// NumStages is the number of lifecycle stages, for dense tables.
	NumStages

	// StageTotal is not a stage a span can be stamped with: it is the
	// column of the registry's lifecycle grid that holds an op class's
	// end-to-end server-side latency (request frame decoded through
	// response written), and what WalkStages reports it as.
	StageTotal = NumStages
)

// stageNames are the metric label values, in Stage order.
var stageNames = [NumStages]string{
	"read", "burst_wait", "decode", "queue_wait",
	"wal_append", "wal_fsync", "apply", "ack_wait", "exec",
	"write", "other",
}

// String returns the stage's metric label ("decode", "wal_fsync", ...).
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// spanBase anchors Nanotime: time.Since reads only the monotonic
// clock, so deltas are immune to wall-clock steps.
var spanBase = time.Now()

// Nanotime returns monotonic nanoseconds since process start — the
// span clock. It is a single monotonic clock read with no allocation.
func Nanotime() int64 { return int64(time.Since(spanBase)) }

// Span is the lifecycle record of one request: a start timestamp and
// one accumulated nanosecond delta per stage. The request-owning
// goroutine advances the clock with Mark/Touch; pipeline actors on
// other goroutines (the shard writer stamping queue/WAL/apply time)
// add deltas with Add, which is atomic — a multi-shard write is
// stamped by several shard writers concurrently. Spans are pooled by
// the serving layer; zero-value Spans are ready after Begin.
type Span struct {
	// Op is the request's operation class (OpSearch, OpInsert,
	// OpDelete, OpScan). OpNone marks a span that should be discarded
	// unobserved (control-plane ops, rejected requests).
	Op core.OpKind

	// Conn is the serving connection's sequence number, used as the
	// trace timeline ID.
	Conn uint64

	// Req is the wire request ID.
	Req uint32

	start  int64
	last   int64
	stages [NumStages]int64
}

// Begin starts the span clock at now (a Nanotime value). The
// server-side total is measured from here, so callers Begin after the
// request frame is read.
func (s *Span) Begin(now int64) {
	s.Op = core.OpNone
	s.Conn, s.Req = 0, 0
	s.start, s.last = now, now
	for i := range s.stages {
		s.stages[i] = 0
	}
}

// Mark attributes the time since the previous mark (or Begin) to st
// and advances the clock. Single-goroutine use only — the owning
// goroutine's sequential stage boundaries.
func (s *Span) Mark(st Stage) {
	now := Nanotime()
	atomic.AddInt64(&s.stages[st], now-s.last)
	s.last = now
}

// MarkResidual attributes to st the time since the previous mark less
// what the shard writers stamped with Add into the store stages (queue
// wait, WAL append, WAL fsync, apply) — all of it stamped since that
// mark, for a write enqueued right after decoding — and advances the
// clock, so no stage counts the writers' time twice.
func (s *Span) MarkResidual(st Stage) {
	now := Nanotime()
	s.Add(st, now-s.last-s.StageNS(StageQueueWait)-s.StageNS(StageWALAppend)-s.StageNS(StageWALFsync)-s.StageNS(StageApply))
	s.last = now
}

// Add atomically attributes ns nanoseconds to st without touching the
// clock. Safe from any goroutine.
func (s *Span) Add(st Stage, ns int64) {
	if ns > 0 {
		atomic.AddInt64(&s.stages[st], ns)
	}
}

// StageNS reads the accumulated nanoseconds of one stage.
func (s *Span) StageNS(st Stage) int64 {
	return atomic.LoadInt64(&s.stages[st])
}

// StartNS reports the span's Begin timestamp (a Nanotime value).
func (s *Span) StartNS() int64 { return s.start }

// Finalize closes the span: the server-side total is the clock's
// current position minus Begin, and the unattributed remainder
// (total minus every named stage except StageRead) is recorded as
// StageOther. It returns the total. Call after the last Mark.
func (s *Span) Finalize() int64 {
	total := s.last - s.start
	var named int64
	for st := StageBurstWait; st < StageOther; st++ {
		named += atomic.LoadInt64(&s.stages[st])
	}
	if other := total - named; other > 0 {
		atomic.AddInt64(&s.stages[StageOther], other)
	}
	return total
}

// ObserveSpan feeds a finalized span into the lifecycle grid: its
// per-stage histograms and the op's end-to-end column. Stages with no
// accumulated time are skipped, so a GET never touches the WAL
// histograms. total is Finalize's return value.
func (m *Metrics) ObserveSpan(sp *Span, total int64) {
	if m == nil || sp.Op == core.OpNone {
		return
	}
	for st := Stage(0); st < NumStages; st++ {
		if ns := sp.StageNS(st); ns > 0 {
			m.stages[sp.Op][st].Observe(time.Duration(ns))
		}
	}
	m.stages[sp.Op][StageTotal].Observe(time.Duration(total))
}

// WalkStages calls fn for every histogram of the lifecycle grid that
// has observations, op class by op class in exposition order, each
// op's stages in pipeline order and then its StageTotal. It is the one
// reader of the grid: STATS and /metrics both walk it. The snapshot is
// a buffer the walk reuses; fn must not keep it.
func (m *Metrics) WalkStages(fn func(op core.OpKind, st Stage, s *HistogramSnapshot)) {
	if m == nil {
		return
	}
	var s HistogramSnapshot
	for _, op := range metricOps {
		for st := Stage(0); st <= StageTotal; st++ {
			if m.stages[op][st].snapshot(&s); s.Count > 0 {
				fn(op, st, &s)
			}
		}
	}
}
