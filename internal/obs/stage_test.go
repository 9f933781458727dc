package obs

import (
	"bufio"
	"strconv"
	"strings"
	"testing"
	"time"

	"pbtree/internal/core"
)

func TestQuantileEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	for _, q := range []float64{0, 0.5, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}

	// A single observation: every quantile lands in its bucket.
	var h Histogram
	h.Observe(100 * time.Nanosecond) // bucket [100, 104) ns
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 102*time.Nanosecond {
			t.Errorf("single-sample Quantile(%v) = %v, want the 102ns midpoint", q, got)
		}
	}

	// q=0 is the first occupied bucket, q=1 the last, even with a
	// rank exactly at Count (clamped to Count-1).
	var h2 Histogram
	h2.Observe(1 * time.Nanosecond)
	h2.Observe(time.Second)
	s2 := h2.Snapshot()
	if got := s2.Quantile(0); got != time.Nanosecond {
		t.Errorf("Quantile(0) = %v, want 1ns (exact below 16ns)", got)
	}
	if got := s2.Quantile(1); got < 968*time.Millisecond || got > 1032*time.Millisecond {
		t.Errorf("Quantile(1) = %v, want 1s within 3.2%%", got)
	}

	// Observations beyond the last bucket bound clamp to the overflow
	// bucket; the quantile answers its (finite) midpoint rather than
	// losing the sample.
	var h3 Histogram
	h3.Observe(time.Duration(1) << 62)
	s3 := h3.Snapshot()
	if s3.Count != 1 {
		t.Fatalf("overflow sample not counted: %+v", s3)
	}
	if lo, hi := bucketBoundsNS(numBuckets - 1); s3.Quantile(0.5) != time.Duration(lo+(hi-lo)/2) {
		t.Errorf("overflow Quantile(0.5) = %v, want the last bucket's midpoint", s3.Quantile(0.5))
	}
}

func TestSpanLifecycle(t *testing.T) {
	var sp Span
	sp.Begin(Nanotime())
	if sp.Op != core.OpNone {
		t.Fatalf("Begin did not reset Op: %v", sp.Op)
	}
	sp.Op = core.OpSearch
	sp.Mark(StageDecode)
	sp.Add(StageQueueWait, 1000)
	sp.Add(StageQueueWait, 500)
	sp.Add(StageApply, -5) // non-positive adds are dropped
	time.Sleep(time.Millisecond)
	sp.MarkResidual(StageAckWait)
	sp.Mark(StageWrite)
	total := sp.Finalize()

	if got := sp.StageNS(StageQueueWait); got != 1500 {
		t.Errorf("queue_wait = %d, want 1500 (atomic adds accumulate)", got)
	}
	if sp.StageNS(StageApply) != 0 {
		t.Errorf("apply = %d, want 0 (negative add dropped)", sp.StageNS(StageApply))
	}
	if total < sp.StageNS(StageDecode)+sp.StageNS(StageWrite) {
		t.Errorf("total %d below the marked stages", total)
	}
	// The residual mark takes the sleep less the 1500ns stamped from
	// outside the clock, so nothing is counted twice.
	if w := sp.StageNS(StageAckWait); w < int64(time.Millisecond)-1500 || w+1500+sp.StageNS(StageDecode)+sp.StageNS(StageWrite) > total {
		t.Errorf("ack_wait = %d of total %d, want the sleep less the 1500ns stamped", w, total)
	}
	// Other never goes below zero.
	if sp.StageNS(StageOther) < 0 {
		t.Errorf("other = %d, want >= 0", sp.StageNS(StageOther))
	}

	// Begin must fully reset for pooled reuse.
	sp.Begin(Nanotime())
	for st := Stage(0); st < NumStages; st++ {
		if sp.StageNS(st) != 0 {
			t.Errorf("stage %v survived Begin", st)
		}
	}
}

func TestSpanOtherClamp(t *testing.T) {
	// A multi-shard write's summed stage times can exceed the wall
	// total; Other must clamp at zero instead of going negative.
	var sp Span
	sp.Begin(Nanotime())
	sp.Op = core.OpInsert
	sp.Add(StageWALFsync, int64(time.Hour)) // far beyond wall time
	sp.Mark(StageWrite)
	sp.Finalize()
	if got := sp.StageNS(StageOther); got != 0 {
		t.Errorf("other = %d, want 0 (clamped)", got)
	}
}

// TestFinalizeNamesBurstWait pins that a request's wait behind its
// burst is a named stage: Finalize leaves none of it in Other.
func TestFinalizeNamesBurstWait(t *testing.T) {
	var sp Span
	sp.Begin(Nanotime())
	time.Sleep(2 * time.Millisecond)
	sp.Mark(StageBurstWait)
	sp.Mark(StageDecode)
	total := sp.Finalize()
	if w := sp.StageNS(StageBurstWait); w < int64(2*time.Millisecond) || w > total {
		t.Errorf("burst_wait = %d of total %d, want the 2ms sleep", w, total)
	}
	if other := sp.StageNS(StageOther); other > int64(time.Millisecond) {
		t.Errorf("other = %d: Finalize counted burst_wait as unattributed", other)
	}
}

func TestObserveSpanSkipsOpNone(t *testing.T) {
	m := NewMetrics()
	var sp Span
	sp.Begin(Nanotime())
	sp.Mark(StageDecode)
	m.ObserveSpan(&sp, sp.Finalize()) // Op is OpNone: must not observe
	for _, op := range metricOps {
		if s := m.stages[op][StageTotal].Snapshot(); s.Count != 0 {
			t.Fatalf("OpNone span observed under %v", op)
		}
	}

	sp.Begin(Nanotime())
	sp.Op = core.OpSearch
	sp.Mark(StageDecode)
	sp.Mark(StageExec)
	m.ObserveSpan(&sp, sp.Finalize())
	if s := m.stages[core.OpSearch][StageTotal].Snapshot(); s.Count != 1 {
		t.Fatalf("span not observed: %+v", s)
	}
	if s := m.stages[core.OpSearch][StageExec].Snapshot(); s.Count != 1 {
		t.Fatalf("exec stage not observed: %+v", s)
	}
	// Stages the span never touched stay empty (sparse exposition).
	if s := m.stages[core.OpSearch][StageWALFsync].Snapshot(); s.Count != 0 {
		t.Fatalf("untouched stage observed: %+v", s)
	}
}

func TestStageNames(t *testing.T) {
	seen := map[string]bool{}
	for st := Stage(0); st < NumStages; st++ {
		name := st.String()
		if name == "" || name == "unknown" {
			t.Errorf("stage %d has no label", st)
		}
		if seen[name] {
			t.Errorf("duplicate stage label %q", name)
		}
		seen[name] = true
	}
	if Stage(-1).String() != "unknown" || Stage(NumStages).String() != "unknown" {
		t.Error("out-of-range stages must read unknown")
	}
}

// TestStagePrometheusConformance checks the per-stage families against
// the text-format rules: HELP and TYPE precede samples, every bucket
// ladder is sorted by le with cumulative counts, and +Inf closes each
// ladder at the sample count.
func TestStagePrometheusConformance(t *testing.T) {
	m := NewMetrics()
	m.stages[core.OpInsert][StageWALFsync].Observe(300 * time.Microsecond)
	m.stages[core.OpInsert][StageWALFsync].Observe(2 * time.Millisecond)
	m.stages[core.OpSearch][StageExec].Observe(5 * time.Microsecond)
	var sp Span
	sp.Begin(Nanotime())
	sp.Op = core.OpSearch
	sp.Mark(StageDecode)
	m.ObserveSpan(&sp, sp.Finalize())

	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()

	for _, family := range []string{"pbtree_stage_latency_seconds", "pbtree_request_latency_seconds"} {
		if !strings.Contains(body, "# HELP "+family+" ") {
			t.Errorf("missing HELP for %s", family)
		}
		if !strings.Contains(body, "# TYPE "+family+" histogram") {
			t.Errorf("missing TYPE for %s", family)
		}
		if help := strings.Index(body, "# HELP "+family); help > strings.Index(body, family+"_bucket") && strings.Contains(body, family+"_bucket") {
			t.Errorf("%s samples precede HELP", family)
		}
	}
	if !strings.Contains(body, `pbtree_stage_latency_seconds_count{op="insert",stage="wal_fsync"} 2`) {
		t.Errorf("missing wal_fsync count in:\n%s", body)
	}

	// Ladder discipline for one series: le values strictly increasing,
	// counts nondecreasing, +Inf last and equal to _count.
	prefix := `pbtree_stage_latency_seconds_bucket{op="insert",stage="wal_fsync",le="`
	var prevLE float64
	var prevN uint64
	var sawInf bool
	var last uint64
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		if sawInf {
			t.Fatalf("sample after +Inf: %q", line)
		}
		rest := line[len(prefix):]
		le := rest[:strings.IndexByte(rest, '"')]
		n, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparsable %q: %v", line, err)
		}
		if le == "+Inf" {
			sawInf = true
		} else {
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("unparsable le %q: %v", le, err)
			}
			if f <= prevLE && prevN > 0 {
				t.Errorf("le not increasing at %q", line)
			}
			prevLE = f
		}
		if n < prevN {
			t.Errorf("cumulative count decreased at %q", line)
		}
		prevN, last = n, n
	}
	if !sawInf {
		t.Fatal("ladder does not end with +Inf")
	}
	if last != 2 {
		t.Errorf("+Inf bucket = %d, want 2", last)
	}
}
