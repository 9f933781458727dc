package obs

import (
	"bufio"
	"io"
	"math"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pbtree/internal/core"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	durs := []time.Duration{1, 2, 3, 100, 1024, time.Millisecond, time.Second}
	var sum time.Duration
	for _, d := range durs {
		h.Observe(d)
		sum += d
	}
	s := h.Snapshot()
	if s.Count != uint64(len(durs)) {
		t.Errorf("count = %d, want %d", s.Count, len(durs))
	}
	if s.SumNS != uint64(sum) {
		t.Errorf("sum = %d, want %d", s.SumNS, sum)
	}
	var inBuckets uint64
	for _, n := range s.Buckets {
		inBuckets += n
	}
	if inBuckets != s.Count {
		t.Errorf("bucket total %d != count %d", inBuckets, s.Count)
	}
	if got := s.Mean(); got != time.Duration(uint64(sum)/uint64(len(durs))) {
		t.Errorf("mean = %v", got)
	}
}

func TestHistogramBucketBounds(t *testing.T) {
	cases := []struct {
		ns     uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {15, 15}, // exact below 16 ns
		{16, 16}, {17, 17}, {31, 31}, // width 1 up to 32 ns
		{32, 32}, {33, 32}, {34, 33}, {63, 47}, // width 2
		{1024, 16 * 7}, {1087, 16 * 7}, {1088, 16*7 + 1}, // width 64
		{1<<35 - 1, numBuckets - 1},
		{1 << 35, numBuckets - 1}, {1 << 62, numBuckets - 1}, // overflow clamps to the last bucket
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.bucket)
		}
	}
	// The buckets tile [0, 2^35) without gaps, both edges of each map
	// into it, and none is wider than 1/16 of its lower bound — which
	// is what bounds the midpoint Quantile returns to ±3.2 %.
	var next uint64
	for b := 0; b < numBuckets; b++ {
		lo, hi := bucketBoundsNS(b)
		if lo != next || hi <= lo {
			t.Fatalf("bucket %d = [%d, %d), want it to start at %d", b, lo, hi, next)
		}
		if bucketOf(lo) != b || bucketOf(hi-1) != b {
			t.Errorf("bucket %d = [%d, %d) does not hold its own edges", b, lo, hi)
		}
		if (hi-lo)*subBuckets > max(lo, subBuckets) {
			t.Errorf("bucket %d = [%d, %d) is wider than 1/16 of its lower bound", b, lo, hi)
		}
		next = hi
	}
	if next != 1<<maxExp {
		t.Errorf("buckets end at %d, want 2^%d", next, maxExp)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", got)
	}
	// 90 fast observations, 10 slow: p50 must be fast, p99 slow, each
	// within the bucket layout's ±3.2 % of the value observed.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 100 * time.Nanosecond}, {0.99, time.Millisecond}} {
		got := s.Quantile(c.q)
		if err := math.Abs(float64(got-c.want)) / float64(c.want); err > 0.032 {
			t.Errorf("Quantile(%v) = %v, want %v within 3.2%% (off by %.1f%%)", c.q, got, c.want, 100*err)
		}
	}
}

func TestMetricsPrometheusExposition(t *testing.T) {
	m := NewMetrics()
	m.Observe(core.OpSearch, 100*time.Nanosecond)
	m.Observe(core.OpSearch, 200*time.Nanosecond)
	m.Observe(core.OpInsert, time.Microsecond)
	done := m.Time(core.OpScan)
	done()

	srv := httptest.NewRecorder()
	m.Handler().ServeHTTP(srv, httptest.NewRequest("GET", "/metrics", nil))
	if ct := srv.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	body := srv.Body.String()

	for _, want := range []string{
		"# TYPE pbtree_op_latency_seconds histogram",
		"# TYPE pbtree_ops_total counter",
		`pbtree_op_latency_seconds_count{op="search"} 2`,
		`pbtree_op_latency_seconds_bucket{op="search",le="+Inf"} 2`,
		`pbtree_ops_total{op="insert"} 1`,
		`pbtree_ops_total{op="delete"} 0`,
		`pbtree_ops_total{op="scan"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q in:\n%s", want, body)
		}
	}

	// Cumulative bucket counts must be monotonically nondecreasing per
	// op, ending at the +Inf count.
	var prev uint64
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `pbtree_op_latency_seconds_bucket{op="search"`) {
			continue
		}
		n, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparsable line %q: %v", line, err)
		}
		if n < prev {
			t.Errorf("bucket ladder not monotone at %q", line)
		}
		prev = n
	}
	if prev != 2 {
		t.Errorf("ladder does not end at count: %d", prev)
	}
}

// parseExposition splits a text-format exposition into its families in
// order of appearance, checking on the way that HELP then TYPE precede
// a family's first sample and that no family is declared twice.
func parseExposition(t *testing.T, body string) (order []string, typ map[string]string, samples map[string][]string) {
	t.Helper()
	typ, samples = map[string]string{}, map[string][]string{}
	helped := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if helped[f[2]] {
				t.Errorf("family %s declared twice", f[2])
			}
			if len(f) < 4 {
				t.Errorf("family %s has no HELP text", f[2])
			}
			helped[f[2]] = true
		case strings.HasPrefix(line, "# TYPE "):
			if !helped[f[2]] || typ[f[2]] != "" {
				t.Errorf("TYPE of %s without a preceding HELP, or repeated", f[2])
			}
			typ[f[2]] = f[3]
			order = append(order, f[2])
		default:
			name := line[:strings.IndexAny(line, "{ ")]
			family := name
			if typ[family] == "" { // histogram series carry a suffix
				family = name[:strings.LastIndexByte(name, '_')]
			}
			if typ[family] == "" || family != order[len(order)-1] {
				t.Errorf("sample %q outside its family's block", line)
			}
			samples[family] = append(samples[family], line)
		}
	}
	return order, typ, samples
}

// parentFamilies is every family internal/obs exposed before the
// counters moved into one table: nothing may disappear from /metrics
// but the worker pool's and the admission budgets' three families each,
// deleted with the pool and the budgets.
var parentFamilies = []string{
	"pbtree_op_latency_seconds", "pbtree_stage_latency_seconds", "pbtree_request_latency_seconds",
	"pbtree_ops_total",
	"pbtree_wal_appends_total", "pbtree_wal_bytes_total", "pbtree_fsyncs_total",
	"pbtree_checkpoints_total", "pbtree_checkpoint_errors_total", "pbtree_wal_replayed_records_total",
	"pbtree_recoveries_total", "pbtree_recovery_ms_total",
	"pbtree_scan_cursors_open", "pbtree_scan_cursors_opened_total", "pbtree_scan_cursor_timeouts_total",
	"pbtree_repl_shipped_records_total", "pbtree_repl_shipped_bytes_total", "pbtree_repl_applied_records_total",
	"pbtree_repl_snapshots_shipped_total", "pbtree_repl_snapshots_installed_total", "pbtree_repl_fenced_rejects_total",
}

// TestCounterTableExposition walks counterDefs: every row appears in
// the exposition exactly once with the value of its cell, under a
// family whose HELP and TYPE precede it, counters end in _total and
// gauges do not, and no family the parent exposed is gone.
func TestCounterTableExposition(t *testing.T) {
	m := NewMetrics()
	for c := Counter(0); c < numCounters; c++ {
		m.Set(c, int64(c)+1000) // a value no other row has
	}
	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	_, typ, samples := parseExposition(t, b.String())

	for c, def := range counterDefs {
		if def.name == "" {
			t.Fatalf("counter %d has no table row", c)
		}
		first := c == 0 || counterDefs[c-1].name != def.name
		if first == (def.help == "") {
			t.Errorf("%s row %d: HELP belongs on the first row of a family, and only there", def.name, c)
		}
		if !first && (def.label == "" || counterDefs[c-1].label == "" || def.gauge != counterDefs[c-1].gauge) {
			t.Errorf("%s row %d: rows sharing a family need a label each and one type", def.name, c)
		}
		for prev := 0; prev < c-1; prev++ {
			if counterDefs[prev].name == def.name && counterDefs[c-1].name != def.name {
				t.Errorf("%s: rows of one family must be adjacent", def.name)
			}
		}
		want := map[bool]string{false: "counter", true: "gauge"}[def.gauge]
		if typ[def.name] != want {
			t.Errorf("%s has TYPE %q, want %s", def.name, typ[def.name], want)
		}
		if strings.HasSuffix(def.name, "_total") == def.gauge {
			t.Errorf("%s: counters end in _total, gauges do not", def.name)
		}
		line := def.name
		if def.label != "" {
			line += "{" + def.label + "}"
		}
		v := float64(c + 1000)
		if def.nanos {
			v /= 1e9 // a nanosecond cell is exposed in seconds
		}
		line += " " + strconv.FormatFloat(v, 'f', -1, 64)
		n := 0
		for _, s := range samples[def.name] {
			if s == line {
				n++
			}
		}
		if n != 1 {
			t.Errorf("sample %q appears %d times, want once; family has %q", line, n, samples[def.name])
		}
	}
	for _, family := range parentFamilies {
		if typ[family] == "" {
			t.Errorf("family %s disappeared from the exposition", family)
		}
	}
}

// TestValuesView pins the JSON view of the table: keys are family
// names minus the prefix and _total, which keeps /replz's counters
// object what it was when a struct produced it.
func TestValuesView(t *testing.T) {
	m := NewMetrics()
	m.Add(ReplShippedRecords, 7)
	got := m.Values("pbtree_repl_")
	want := map[string]int64{
		"shipped_records": 7, "shipped_bytes": 0, "applied_records": 0,
		"snapshots_shipped": 0, "snapshots_installed": 0, "fenced_rejects": 0,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Values(pbtree_repl_) = %v, want %v", got, want)
	}
	if v := m.Values("pbtree_requests"); len(v) != 11 || v[`{op="scan"}`] != 0 {
		t.Errorf("labelled rows must keep distinct keys: %v", v)
	}
}

// TestNilMetricsSafe makes the registry's doc comment true: every
// exported method works on a nil *Metrics, recording nothing and
// reading as empty.
func TestNilMetricsSafe(t *testing.T) {
	var m *Metrics
	var sp Span
	sp.Begin(Nanotime())
	sp.Op = core.OpSearch
	for name, call := range map[string]func(){
		"Add":         func() { m.Add(Rejected, 1) },
		"Set":         func() { m.Set(CursorsOpen, 1) },
		"Checkpoint":  func() { m.Checkpoint(24, time.Millisecond, nil); m.Checkpoint(0, time.Millisecond, io.EOF) },
		"Observe":     func() { m.Observe(core.OpSearch, time.Microsecond) },
		"Time":        func() { m.Time(core.OpScan)() },
		"ObserveSpan": func() { m.ObserveSpan(&sp, sp.Finalize()) },
		"WalkStages": func() {
			m.WalkStages(func(core.OpKind, Stage, *HistogramSnapshot) { t.Error("nil registry has a stage") })
		},
		"Handler": func() {
			m.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/metrics", nil))
		},
	} {
		t.Run(name, func(t *testing.T) { call() }) // a nil dereference panics the subtest
	}
	if m.Load(Rejected) != 0 || len(m.Values("pbtree_")) != int(numCounters) {
		t.Error("a nil registry must read as empty")
	}
	if s := m.Snapshot(core.OpSearch); s.Count != 0 {
		t.Errorf("nil Snapshot = %+v", s)
	}
	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if _, typ, _ := parseExposition(t, b.String()); typ["pbtree_rejected_total"] != "counter" {
		t.Error("a nil registry still writes a well-formed, all-zero exposition")
	}
}

// TestHistogramLadderUnderLoad scrapes while writers observe: every
// bucket ladder must be non-decreasing and close with +Inf equal to
// _count. With a separate count cell the last finite bucket could
// overtake +Inf; Snapshot now derives the count from the buckets it
// copied. Run under -race.
func TestHistogramLadderUnderLoad(t *testing.T) {
	m := NewMetrics()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m.Observe(core.OpSearch, time.Duration(1+(i*7+w)%5000))
				m.stages[core.OpInsert][StageApply].Observe(time.Duration(i % 300))
			}
		}(w)
	}
	for scrape := 0; scrape < 50; scrape++ {
		var b strings.Builder
		if err := m.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		_, typ, samples := parseExposition(t, b.String())
		for family, lines := range samples {
			if typ[family] != "histogram" {
				continue
			}
			var prev, inf uint64
			for _, line := range lines {
				n, _ := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
				switch {
				case strings.Contains(line, `le="+Inf"`):
					if n < prev {
						t.Fatalf("+Inf below the last finite bucket: %q after %d", line, prev)
					}
					inf, prev = n, 0
				case strings.HasPrefix(line, family+"_bucket"):
					if n < prev {
						t.Fatalf("ladder decreases at %q (previous %d)", line, prev)
					}
					prev = n
				case strings.HasPrefix(line, family+"_count"):
					if n != inf {
						t.Fatalf("%q disagrees with +Inf = %d", line, inf)
					}
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkMetricsObserve bounds the native-path overhead of leaving
// metrics on: one Observe is a handful of atomic adds.
func BenchmarkMetricsObserve(b *testing.B) {
	m := NewMetrics()
	for i := 0; i < b.N; i++ {
		m.Observe(core.OpSearch, time.Duration(i))
	}
}

// BenchmarkMetricsTime additionally includes the two clock reads of the
// Time helper — the full cost of `defer m.Time(op)()` around an op.
func BenchmarkMetricsTime(b *testing.B) {
	m := NewMetrics()
	for i := 0; i < b.N; i++ {
		m.Time(core.OpSearch)()
	}
}
