package obs

import (
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pbtree/internal/core"
)

// Histogram buckets are log-linear: latencies below 2^subBits ns have
// a bucket each, and every power of two from there up is cut into
// 2^subBits equal sub-buckets, so a bucket is never wider than 1/16 of
// its lower bound. The top bucket absorbs everything from ~34 s up.
const (
	subBits    = 4
	subBuckets = 1 << subBits
	maxExp     = 35 // observations of 2^maxExp ns and more land in the last bucket
	numBuckets = subBuckets * (maxExp - subBits + 1)
)

// Histogram is a lock-free latency histogram with log-linear
// nanosecond buckets. Observe is safe for any number of concurrent
// goroutines and costs two atomic adds (plus, the first time a
// latency falls outside the span seen so far, a compare-and-swap) —
// cheap enough to leave on in a serving hot path (see
// BenchmarkMetricsObserve).
type Histogram struct {
	sumNS atomic.Uint64
	// buckets[numBuckets-low : high] holds every observation. Both
	// ends only grow, from the empty zero value, so a reader scans the
	// few cache lines a latency distribution occupies and not all
	// numBuckets: STATS snapshots the whole lifecycle grid per call.
	low, high atomic.Int32
	buckets   [numBuckets]atomic.Uint64
}

// raise lifts a to at least v.
func raise(a *atomic.Int32, v int) {
	for old := a.Load(); int(old) < v && !a.CompareAndSwap(old, int32(v)); old = a.Load() {
	}
}

// bucketOf returns the bucket index of a latency.
func bucketOf(ns uint64) int {
	if ns < subBuckets {
		return int(ns)
	}
	shift := bits.Len64(ns) - 1 - subBits // the sub-bucket width is 2^shift
	if shift > maxExp-1-subBits {
		return numBuckets - 1
	}
	return shift*subBuckets + int(ns>>shift)
}

// bucketBoundsNS returns bucket b's inclusive lower and exclusive upper
// bound in nanoseconds.
func bucketBoundsNS(b int) (lo, hi uint64) {
	if b < subBuckets {
		return uint64(b), uint64(b) + 1
	}
	shift := b/subBuckets - 1
	lo = uint64(subBuckets+b%subBuckets) << shift
	return lo, lo + 1<<shift
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	b := bucketOf(ns)
	h.buckets[b].Add(1)
	h.sumNS.Add(ns)
	raise(&h.low, numBuckets-b)
	raise(&h.high, b+1)
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count   uint64 // the sum of Buckets
	SumNS   uint64
	Buckets [numBuckets]uint64
}

// Snapshot copies the histogram. Count is the sum of the copied
// buckets, so a snapshot taken under load is always a well-formed
// ladder; SumNS may lead or trail it by the in-flight observations.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	h.snapshot(&s)
	return s
}

// snapshot is Snapshot into a caller's buffer: a reader of many
// histograms reuses one.
func (h *Histogram) snapshot(s *HistogramSnapshot) {
	*s = HistogramSnapshot{SumNS: h.sumNS.Load()}
	for i, end := numBuckets-int(h.low.Load()), int(h.high.Load()); i < end; i++ {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
}

// Mean reports the mean observed latency.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / s.Count)
}

// Quantile reports the q-quantile (0 <= q <= 1) as the midpoint of the
// bucket that contains it: exact below 16 ns, within ±3.2 % above.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	for b, n := range s.Buckets {
		seen += n
		if seen > rank {
			lo, hi := bucketBoundsNS(b)
			return time.Duration(lo + (hi-lo)/2)
		}
	}
	return 0 // unreachable: Count is the sum of Buckets
}

// Counter identifies one cell of the registry: a counter or a gauge,
// declared by its row of counterDefs and nowhere else. STATS, /statsz
// and /metrics all read the cell the serving path writes.
type Counter int

// The registry's cells, in exposition order; counterDefs says what
// each one counts.
const (
	// One row per wire op in wire-op order: the cell of serve.Op o is
	// ReqGet + Counter(o-1).
	ReqGet Counter = iota
	ReqMGet
	ReqScan
	ReqPut
	ReqDel
	ReqStats
	ReqHello
	ReqReplicate
	ReqScanOpen
	ReqScanNext
	ReqScanClose

	Rejected
	Expired
	BadRequests

	CursorsOpen
	CursorsOpened
	CursorTimeouts

	SnapBlocksCopied
	SnapRetiredBlocks

	WALAppends
	WALBytes
	Fsyncs
	Checkpoints
	CheckpointErrors
	CheckpointBytes
	CheckpointNS
	WALReplayed
	Recoveries
	RecoveryMS

	ReplShippedRecords
	ReplShippedBytes
	ReplAppliedRecords
	ReplSnapshotsShipped
	ReplSnapshotsInstalled
	ReplFencedRejects

	numCounters
)

// counterDef is one row of the metric table.
type counterDef struct {
	name  string // Prometheus family; counters end in _total
	help  string // HELP text, on the first row of a family
	gauge bool   // TYPE gauge instead of counter
	label string // fixed label of a multi-row family, e.g. `class="read"`
	nanos bool   // the cell counts nanoseconds, exposed in seconds
}

// counterDefs declares every counter and gauge of the registry once.
// Rows of one labelled family are adjacent.
var counterDefs = [numCounters]counterDef{
	ReqGet:       {name: "pbtree_requests_total", help: "Requests past the deadline check, by wire op.", label: `op="get"`},
	ReqMGet:      {name: "pbtree_requests_total", label: `op="mget"`},
	ReqScan:      {name: "pbtree_requests_total", label: `op="scan"`},
	ReqPut:       {name: "pbtree_requests_total", label: `op="put"`},
	ReqDel:       {name: "pbtree_requests_total", label: `op="del"`},
	ReqStats:     {name: "pbtree_requests_total", label: `op="stats"`},
	ReqHello:     {name: "pbtree_requests_total", label: `op="hello"`},
	ReqReplicate: {name: "pbtree_requests_total", label: `op="replicate"`},
	ReqScanOpen:  {name: "pbtree_requests_total", label: `op="scanopen"`},
	ReqScanNext:  {name: "pbtree_requests_total", label: `op="scannext"`},
	ReqScanClose: {name: "pbtree_requests_total", label: `op="scanclose"`},

	Rejected:    {name: "pbtree_rejected_total", help: "Requests answered with a retry hint (shard queue full or cursor cap)."},
	Expired:     {name: "pbtree_expired_total", help: "Requests whose deadline passed before execution."},
	BadRequests: {name: "pbtree_bad_requests_total", help: "Malformed request frames."},

	CursorsOpen:    {name: "pbtree_scan_cursors_open", help: "Streaming-scan cursors currently open.", gauge: true},
	CursorsOpened:  {name: "pbtree_scan_cursors_opened_total", help: "Streaming-scan cursors ever opened."},
	CursorTimeouts: {name: "pbtree_scan_cursor_timeouts_total", help: "Streaming-scan cursors reclaimed idle."},

	SnapBlocksCopied:  {name: "pbtree_snapshot_blocks_copied_total", help: "Tree blocks copied so that published versions stayed intact (pbtree engine)."},
	SnapRetiredBlocks: {name: "pbtree_snapshot_retired_blocks", help: "Replaced tree blocks waiting for a reader of an older version before reuse (pbtree engine).", gauge: true},

	WALAppends:       {name: "pbtree_wal_appends_total", help: "WAL group commits written."},
	WALBytes:         {name: "pbtree_wal_bytes_total", help: "WAL bytes written."},
	Fsyncs:           {name: "pbtree_fsyncs_total", help: "WAL and checkpoint fsyncs."},
	Checkpoints:      {name: "pbtree_checkpoints_total", help: "Checkpoints completed."},
	CheckpointErrors: {name: "pbtree_checkpoint_errors_total", help: "Checkpoint attempts that failed."},
	CheckpointBytes:  {name: "pbtree_checkpoint_bytes_total", help: "Bytes of the checkpoints completed (pbtree engine images; the lsm engine's flushes count 0)."},
	CheckpointNS:     {name: "pbtree_checkpoint_seconds_total", help: "Wall-clock seconds spent in checkpoint attempts.", nanos: true},
	WALReplayed:      {name: "pbtree_wal_replayed_records_total", help: "WAL records replayed during recovery."},
	Recoveries:       {name: "pbtree_recoveries_total", help: "Shard recoveries completed."},
	RecoveryMS:       {name: "pbtree_recovery_ms_total", help: "Total wall-clock milliseconds spent recovering."},

	ReplShippedRecords:     {name: "pbtree_repl_shipped_records_total", help: "WAL records served to replication followers."},
	ReplShippedBytes:       {name: "pbtree_repl_shipped_bytes_total", help: "WAL bytes served to replication followers."},
	ReplAppliedRecords:     {name: "pbtree_repl_applied_records_total", help: "Shipped WAL records durably applied locally."},
	ReplSnapshotsShipped:   {name: "pbtree_repl_snapshots_shipped_total", help: "Checkpoint streams fully served to followers."},
	ReplSnapshotsInstalled: {name: "pbtree_repl_snapshots_installed_total", help: "Checkpoint streams installed locally."},
	ReplFencedRejects:      {name: "pbtree_repl_fenced_rejects_total", help: "Replication requests and appends rejected by the epoch fence."},
}

// metricOps are the operations Metrics tracks, in exposition order.
var metricOps = []core.OpKind{core.OpSearch, core.OpInsert, core.OpDelete, core.OpScan}

// Metrics is the native-path serving metrics registry: the cells of
// counterDefs, one latency histogram (which doubles as a throughput
// counter) per index operation, and the request-lifecycle grid of
// stage.go. Every method is safe for concurrent use and for a nil
// receiver — a nil registry records nothing and reads as empty — so
// instrumented code paths need no guards. It complements the
// simulator-side Collector: the simulator explains cycles, Metrics
// watches real wall-clock serving.
type Metrics struct {
	cells  [numCounters]atomic.Int64
	hists  [core.NumOps]Histogram
	stages [core.NumOps][NumStages + 1]Histogram // column StageTotal is the op's end-to-end latency
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Add adds n to a cell.
func (m *Metrics) Add(c Counter, n int64) {
	if m != nil {
		m.cells[c].Add(n)
	}
}

// Set stores a gauge's value.
func (m *Metrics) Set(c Counter, v int64) {
	if m != nil {
		m.cells[c].Store(v)
	}
}

// Load reads a cell.
func (m *Metrics) Load(c Counter) int64 {
	if m == nil {
		return 0
	}
	return m.cells[c].Load()
}

// Checkpoint records one checkpoint attempt: the time it took, and
// either its failure or its bytes.
func (m *Metrics) Checkpoint(bytes int64, d time.Duration, err error) {
	m.Add(CheckpointNS, int64(d))
	if err != nil {
		m.Add(CheckpointErrors, 1)
		return
	}
	m.Add(Checkpoints, 1)
	m.Add(CheckpointBytes, bytes)
}

// Values reads every cell whose family starts with prefix, keyed by
// the family name without the prefix and the _total suffix (rows of a
// labelled family carry their label: `capacity{class="read"}`). The
// replication prefix yields the counters object of /replz.
func (m *Metrics) Values(prefix string) map[string]int64 {
	out := make(map[string]int64)
	for c, def := range counterDefs {
		key, ok := strings.CutPrefix(def.name, prefix)
		if !ok {
			continue
		}
		key = strings.TrimSuffix(key, "_total")
		if def.label != "" {
			key += "{" + def.label + "}"
		}
		out[key] = m.Load(Counter(c))
	}
	return out
}

// Observe records one operation latency.
func (m *Metrics) Observe(op core.OpKind, d time.Duration) {
	if m != nil {
		m.hists[op].Observe(d)
	}
}

// Time starts timing an operation; the returned func records the
// latency when called:
//
//	defer metrics.Time(pbtree.OpSearch)()
func (m *Metrics) Time(op core.OpKind) func() {
	start := time.Now()
	return func() { m.Observe(op, time.Since(start)) }
}

// Snapshot returns the histogram of one operation.
func (m *Metrics) Snapshot(op core.OpKind) HistogramSnapshot {
	if m == nil {
		return HistogramSnapshot{}
	}
	return m.hists[op].Snapshot()
}

// Sample is one sample line of a metric family: an optional fixed
// label set (`shard="0"`) and the value.
type Sample struct {
	Labels string
	Value  float64
}

// WriteFamily writes one metric family in the Prometheus text format:
// its HELP and TYPE header, then its samples. Every counter and gauge
// line of /metrics is produced here — the registry's table, the
// store's shard gauges and the replication node's lag gauges.
func WriteFamily(w io.Writer, name, help, typ string, samples ...Sample) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ); err != nil {
		return err
	}
	for _, s := range samples {
		labels := ""
		if s.Labels != "" {
			labels = "{" + s.Labels + "}"
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, strconv.FormatFloat(s.Value, 'f', -1, 64)); err != nil {
			return err
		}
	}
	return nil
}

// writeHistograms writes one histogram family: its header, then each
// series the callback yields (bucket ladder + sum + count under the
// given label set). A ladder is compact: only buckets that received
// observations are printed (cumulative counts stay monotone, and the
// +Inf bucket always closes the ladder).
func writeHistograms(w io.Writer, name, help string, each func(series func(labels string, s *HistogramSnapshot))) error {
	err := WriteFamily(w, name, help, "histogram")
	each(func(labels string, s *HistogramSnapshot) {
		var cum uint64
		for b, n := range s.Buckets {
			if n == 0 || err != nil {
				continue
			}
			cum += n
			_, hi := bucketBoundsNS(b)
			le := strconv.FormatFloat(float64(hi)/1e9, 'g', -1, 64)
			_, err = fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, labels, le, cum)
		}
		if err == nil {
			_, err = fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n%s_sum{%s} %g\n%s_count{%s} %d\n",
				name, labels, s.Count, name, labels, float64(s.SumNS)/1e9, name, labels, s.Count)
		}
	})
	return err
}

// WritePrometheus writes the registry in the Prometheus text
// exposition format (version 0.0.4): the per-op histograms, the
// lifecycle grid, then one loop over counterDefs.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	var snaps [core.NumOps]HistogramSnapshot
	err := writeHistograms(w, "pbtree_op_latency_seconds", "Index operation latency.", func(series func(string, *HistogramSnapshot)) {
		for _, op := range metricOps {
			snaps[op] = m.Snapshot(op)
			series(fmt.Sprintf("op=%q", op), &snaps[op])
		}
	})
	// Only (op, stage) pairs that received observations are printed — a
	// GET never emits WAL-stage samples — but the HELP/TYPE headers
	// always are, so scrapers can discover the families on an idle
	// server.
	if err == nil {
		err = writeHistograms(w, "pbtree_stage_latency_seconds", "Per-request latency attributed to one serving pipeline stage.", func(series func(string, *HistogramSnapshot)) {
			m.WalkStages(func(op core.OpKind, st Stage, s *HistogramSnapshot) {
				if st != StageTotal {
					series(fmt.Sprintf("op=%q,stage=%q", op, st), s)
				}
			})
		})
	}
	if err == nil {
		err = writeHistograms(w, "pbtree_request_latency_seconds", "End-to-end server-side request latency (frame decoded through response written).", func(series func(string, *HistogramSnapshot)) {
			m.WalkStages(func(op core.OpKind, st Stage, s *HistogramSnapshot) {
				if st == StageTotal {
					series(fmt.Sprintf("op=%q", op), s)
				}
			})
		})
	}
	if err != nil {
		return err
	}

	samples := make([]Sample, 0, len(metricOps))
	for _, op := range metricOps {
		samples = append(samples, Sample{fmt.Sprintf("op=%q", op), float64(snaps[op].Count)})
	}
	if err := WriteFamily(w, "pbtree_ops_total", "Index operations served.", "counter", samples...); err != nil {
		return err
	}

	for c := 0; c < len(counterDefs); {
		def, typ := counterDefs[c], "counter"
		if def.gauge {
			typ = "gauge"
		}
		samples = samples[:0]
		for ; c < len(counterDefs) && counterDefs[c].name == def.name; c++ {
			v := float64(m.Load(Counter(c)))
			if counterDefs[c].nanos {
				v /= 1e9
			}
			samples = append(samples, Sample{counterDefs[c].label, v})
		}
		if err := WriteFamily(w, def.name, def.help, typ, samples...); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an HTTP handler serving the Prometheus text format,
// mountable next to net/http/pprof on a debug mux.
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.WritePrometheus(w)
	})
}
