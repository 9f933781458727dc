package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pbtree/internal/core"
	"pbtree/internal/obs"
)

// startTracedServer boots a server with the given lifecycle sinks and
// returns it plus its shared metrics registry.
func startTracedServer(t *testing.T, n int, lc LifecycleConfig) (*Server, string, *obs.Metrics) {
	t.Helper()
	metrics := obs.NewMetrics()
	srv, addr := startServer(t, n, ServerConfig{Metrics: metrics, Lifecycle: lc})
	return srv, addr, metrics
}

// driveMix runs every op class against addr so all stage families have
// samples.
func driveMix(t *testing.T, addr string) {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 5 * time.Second
	for i := 0; i < 20; i++ {
		if _, _, err := cl.Get(8); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.MGet([]core.Key{8, 16, 24}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Scan(8, 800, 50); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := cl.Put(core.Pair{Key: core.Key(7 + 8*i), TID: core.TID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Del(7); err != nil {
		t.Fatal(err)
	}
}

// stageSnapshot copies one histogram of the registry's lifecycle grid
// (empty when it has no observations).
func stageSnapshot(m *obs.Metrics, op core.OpKind, st obs.Stage) (out obs.HistogramSnapshot) {
	m.WalkStages(func(o core.OpKind, s obs.Stage, h *obs.HistogramSnapshot) {
		if o == op && s == st {
			out = *h
		}
	})
	return out
}

// waitSpans waits until n spans of op are in the histograms: a span is
// closed after its response is flushed, so the last answers a client
// has seen may not have been observed yet.
func waitSpans(t *testing.T, metrics *obs.Metrics, op core.OpKind, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); stageSnapshot(metrics, op, obs.StageTotal).Count < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%v spans = %d, want >= %d", op, stageSnapshot(metrics, op, obs.StageTotal).Count, n)
		}
	}
}

func TestLifecycleStageHistograms(t *testing.T) {
	_, addr, metrics := startTracedServer(t, 5000, LifecycleConfig{})
	driveMix(t, addr)
	// The connection's goroutine closes a request's span once its
	// response is buffered or flushed, before it reads the next
	// request: only the last request's span can lag the client.
	waitSpans(t, metrics, core.OpDelete, 1)

	// Every read attributes exec time; writes must carry the
	// writer-stamped durability-path stages even without a WAL
	// (queue_wait and apply always, wal_* only when durable).
	tot := stageSnapshot(metrics, core.OpSearch, obs.StageTotal)
	if tot.Count < 20 {
		t.Fatalf("search totals = %d, want >= 20", tot.Count)
	}
	if exec := stageSnapshot(metrics, core.OpSearch, obs.StageExec).Count; exec != tot.Count {
		t.Fatalf("search exec count %d != total count %d", exec, tot.Count)
	}
	for _, st := range []obs.Stage{obs.StageQueueWait, obs.StageApply} {
		if s := stageSnapshot(metrics, core.OpInsert, st); s.Count == 0 {
			t.Fatalf("no %v samples for insert", st)
		}
	}
	if s := stageSnapshot(metrics, core.OpInsert, obs.StageWALFsync); s.Count != 0 {
		t.Fatalf("wal_fsync observed on a non-durable store: %+v", s)
	}
	// Every request marks decode and write.
	for _, op := range []core.OpKind{core.OpSearch, core.OpInsert, core.OpDelete, core.OpScan} {
		tot := stageSnapshot(metrics, op, obs.StageTotal)
		if tot.Count == 0 {
			t.Fatalf("no totals for %v", op)
		}
		if s := stageSnapshot(metrics, op, obs.StageWrite); s.Count != tot.Count {
			t.Fatalf("%v: write count %d != total count %d", op, s.Count, tot.Count)
		}
	}
}

func TestLifecyclePipelinedAndStats(t *testing.T) {
	srv, addr, metrics := startTracedServer(t, 5000, LifecycleConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 5 * time.Second
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				cl.Get(8)
			}
		}()
	}
	wg.Wait()
	waitSpans(t, metrics, core.OpSearch, 100)

	// Pipelined reads run to completion on the connection's goroutine:
	// every one has an exec stage.
	if s := stageSnapshot(metrics, core.OpSearch, obs.StageExec); s.Count < 100 {
		t.Fatalf("exec = %d, want >= 100", s.Count)
	}

	// STATS carries the attribution tables, both over the wire and via
	// the exported accessor.
	stats := srv.Stats()
	if stats.Stages == nil || stats.StageTotals == nil {
		t.Fatal("stage maps must never be nil")
	}
	for _, st := range []string{"exec", "write"} {
		if _, ok := stats.Stages["search"][st]; !ok {
			t.Fatalf("search/%s missing from STATS stages: %+v", st, stats.Stages)
		}
	}
	for st := range stats.Stages["search"] {
		if strings.Contains(st, "wait") && st != "burst_wait" {
			t.Fatalf("search/%s in STATS stages: reads wait for nothing but their burst", st)
		}
	}
	if stats.StageTotals["search"].Count < 100 {
		t.Fatalf("search total count = %d", stats.StageTotals["search"].Count)
	}
	blob, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var wire ServerStats
	if err := json.Unmarshal(blob, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Stages["search"]["decode"].Count == 0 {
		t.Fatalf("wire STATS missing stage attribution: %s", blob)
	}
}

func TestLifecycleSlowLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	// The slow log writes to slog.Default(); restore it after the
	// server has shut down (cleanups run last-registered first).
	prev := slog.Default()
	t.Cleanup(func() { slog.SetDefault(prev) })
	slog.SetDefault(slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil)))
	// A 1ns threshold makes every request slow; the limiter must then
	// cap the lines at slowPerSec.
	_, addr, _ := startTracedServer(t, 5000, LifecycleConfig{SlowThreshold: time.Nanosecond})
	driveMix(t, addr)

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "slow request") {
		t.Fatalf("no slow-request lines in %q", out)
	}
	if !strings.Contains(out, "total_us=") || !strings.Contains(out, "op=") {
		t.Fatalf("slow line missing fields: %q", out)
	}
	// All of driveMix's requests beat the 1ns threshold inside one
	// rate-limiter window, so at most slowPerSec lines may appear.
	if n := strings.Count(out, "slow request"); n > slowPerSec {
		t.Fatalf("%d slow lines, want <= %d (rate limit)", n, slowPerSec)
	}
}

// lockedWriter serializes concurrent slog writes from handler
// goroutines.
type lockedWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

func TestLifecycleChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	srv, addr, _ := startTracedServer(t, 5000, LifecycleConfig{
		Trace: &lockedWriter{w: &buf, mu: &mu},
	})
	driveMix(t, addr)
	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	raw := buf.Bytes()
	mu.Unlock()
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, raw)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	names := map[string]bool{}
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
		names[ev["name"].(string)] = true
	}
	for _, want := range []string{"search", "decode", "write"} {
		if !names[want] {
			t.Fatalf("trace missing %q slices (have %v)", want, names)
		}
	}
}

// adminGet mounts the admin mux of a running server and returns a
// fetcher of its endpoints.
func adminGet(t *testing.T, srv *Server) func(path string) (int, string) {
	ts := httptest.NewServer(NewAdminMux(srv, srv.st))
	t.Cleanup(ts.Close)
	return func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
}

// TestAdminEndpoints mounts the admin mux: /metrics, /healthz and
// /statsz must all answer, and /metrics must include the per-stage and
// per-shard families.
func TestAdminEndpoints(t *testing.T) {
	srv, addr, _ := startTracedServer(t, 5000, LifecycleConfig{})
	driveMix(t, addr)
	get := adminGet(t, srv)

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"pbtree_op_latency_seconds",
		`pbtree_stage_latency_seconds_count{op="search",stage="exec"}`,
		"pbtree_request_latency_seconds",
		`pbtree_shard_queue_depth{shard="0"}`,
		`pbtree_shard_ready{shard="0"} 1`,
		"pbtree_shard_snapshot_age_seconds",
		"pbtree_shard_wal_backlog_records",
		"pbtree_shard_keys",
		`pbtree_requests_total{op="put"} 5`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	code, body = get("/statsz")
	if code != http.StatusOK {
		t.Fatalf("/statsz = %d", code)
	}
	var ss ServerStats
	if err := json.Unmarshal([]byte(body), &ss); err != nil {
		t.Fatalf("/statsz not ServerStats JSON: %v", err)
	}
	if len(ss.Stages) == 0 {
		t.Fatal("/statsz has no stage attribution")
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

// TestStatszAgreesWithMetrics scripts the events that used to be
// counted twice — once in the server's own atomics for STATS, once in
// the registry for /metrics: a cursor opened and reaped idle, a cursor
// cap hit. Both views now read one cell, so they must agree to the
// unit.
func TestStatszAgreesWithMetrics(t *testing.T) {
	srv, addr := startServer(t, 1000, ServerConfig{CursorTimeout: 20 * time.Millisecond})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 5 * time.Second
	for i := 0; i <= maxConnCursors; i++ { // the last one hits the per-connection cap
		if _, err := cl.ScanOpen(0, 8000); err != nil && i < maxConnCursors {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().Cursors.Open != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("reaper never reclaimed the idle cursors")
		}
	}

	get := adminGet(t, srv)
	_, statsz := get("/statsz")
	_, metrics := get("/metrics")
	var ss ServerStats
	if err := json.Unmarshal([]byte(statsz), &ss); err != nil {
		t.Fatal(err)
	}
	if ss.Cursors.Opened != maxConnCursors || ss.Cursors.Timeouts != maxConnCursors || ss.Rejected != 1 {
		t.Fatalf("/statsz after the script: cursors %+v, rejected %d", ss.Cursors, ss.Rejected)
	}
	for sample, want := range map[string]uint64{
		"pbtree_scan_cursors_opened_total":     ss.Cursors.Opened,
		"pbtree_scan_cursor_timeouts_total":    ss.Cursors.Timeouts,
		"pbtree_scan_cursors_open":             uint64(ss.Cursors.Open),
		"pbtree_rejected_total":                ss.Rejected,
		"pbtree_expired_total":                 ss.Expired,
		"pbtree_bad_requests_total":            ss.BadReqs,
		`pbtree_requests_total{op="scanopen"}`: ss.Ops["scanopen"],
	} {
		if line := fmt.Sprintf("\n%s %d\n", sample, want); !strings.Contains(metrics, line) {
			t.Errorf("/metrics lacks %q, the value /statsz reports", strings.TrimSpace(line))
		}
	}
}

// TestRegistryRowOrder pins the one place the serving layer reaches a
// registry cell by arithmetic: a wire op's request counter must land
// on the table row whose label names it.
func TestRegistryRowOrder(t *testing.T) {
	m := obs.NewMetrics()
	for op := OpGet; op <= OpScanClose; op++ {
		m.Add(reqCounter(op), int64(op))
	}
	reqs := m.Values("pbtree_requests")
	for op := OpGet; op <= OpScanClose; op++ {
		if got := reqs[fmt.Sprintf("{op=%q}", op)]; got != int64(op) || len(reqs) != int(OpScanClose) {
			t.Errorf("request row of %v holds %d (of %d rows), want %d", op, got, len(reqs), op)
		}
	}
}

// TestLifecycleAlwaysOn pins that stage tracing needs no
// configuration: before any request STATS returns empty (but non-nil)
// stage maps, and the zero ServerConfig records every op's stages.
func TestLifecycleAlwaysOn(t *testing.T) {
	metrics := obs.NewMetrics()
	srv, addr := startServer(t, 1000, ServerConfig{Metrics: metrics})
	stats := srv.Stats()
	if stats.Stages == nil || stats.StageTotals == nil {
		t.Fatal("stage maps must be non-nil before any request")
	}
	if len(stats.Stages) != 0 {
		t.Fatalf("stage data before any request: %+v", stats.Stages)
	}
	driveMix(t, addr)
	waitSpans(t, metrics, core.OpDelete, 1) // driveMix's last request
	if s := stageSnapshot(metrics, core.OpSearch, obs.StageTotal); s.Count < 20 {
		t.Fatalf("search totals = %d with the zero ServerConfig, want >= 20", s.Count)
	}
}
