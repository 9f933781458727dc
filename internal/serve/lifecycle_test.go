package serve

import (
	"bytes"
	"encoding/json"
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

// startTracedServer boots a server with lifecycle tracing on and
// returns it plus its shared metrics registry.
func startTracedServer(t *testing.T, n int, lc LifecycleConfig) (*Server, string, *obs.Metrics) {
	t.Helper()
	lc.Enabled = true
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

// waitSpans waits until n spans of op are in the histograms: a span is
// closed after its response is flushed, so the last answers a client
// has seen may not have been observed yet.
func waitSpans(t *testing.T, metrics *obs.Metrics, op core.OpKind, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); metrics.StageTotalSnapshot(op).Count < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%v spans = %d, want >= %d", op, metrics.StageTotalSnapshot(op).Count, n)
		}
	}
}

func TestLifecycleStageHistograms(t *testing.T) {
	_, addr, metrics := startTracedServer(t, 5000, LifecycleConfig{})
	driveMix(t, addr)
	waitSpans(t, metrics, core.OpDelete, 1) // driveMix's last request

	// Every read attributes exec time; writes must carry the
	// writer-stamped durability-path stages even without a WAL
	// (queue_wait and apply always, wal_* only when durable).
	tot := metrics.StageTotalSnapshot(core.OpSearch)
	if tot.Count < 20 {
		t.Fatalf("search totals = %d, want >= 20", tot.Count)
	}
	if exec := metrics.StageSnapshot(core.OpSearch, obs.StageExec).Count; exec != tot.Count {
		t.Fatalf("search exec count %d != total count %d", exec, tot.Count)
	}
	for _, st := range []obs.Stage{obs.StageQueueWait, obs.StageApply} {
		if s := metrics.StageSnapshot(core.OpInsert, st); s.Count == 0 {
			t.Fatalf("no %v samples for insert", st)
		}
	}
	if s := metrics.StageSnapshot(core.OpInsert, obs.StageWALFsync); s.Count != 0 {
		t.Fatalf("wal_fsync observed on a non-durable store: %+v", s)
	}
	// Every request marks decode and write.
	for _, op := range []core.OpKind{core.OpSearch, core.OpInsert, core.OpDelete, core.OpScan} {
		tot := metrics.StageTotalSnapshot(op)
		if tot.Count == 0 {
			t.Fatalf("no totals for %v", op)
		}
		if s := metrics.StageSnapshot(op, obs.StageWrite); s.Count != tot.Count {
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

	// Pipelined reads run to completion on the read goroutine: every
	// one has an exec stage, and none waits for a writer's turn.
	if s := metrics.StageSnapshot(core.OpSearch, obs.StageExec); s.Count < 100 {
		t.Fatalf("exec = %d, want >= 100", s.Count)
	}
	if s := metrics.StageSnapshot(core.OpSearch, obs.StageRespQueue); s.Count != 0 {
		t.Fatalf("resp_queue = %d on inline reads, want 0", s.Count)
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
		if strings.Contains(st, "wait") || st == "resp_queue" {
			t.Fatalf("search/%s in STATS stages: reads wait for no batch, queue or writer", st)
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
	logger := slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	// A 1ns threshold makes every request slow; the limiter must then
	// cap the lines at roughly SlowPerSec.
	_, addr, _ := startTracedServer(t, 5000, LifecycleConfig{
		SlowThreshold: time.Nanosecond,
		SlowPerSec:    3,
		Log:           logger,
	})
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
	// rate-limiter window, so at most SlowPerSec lines may appear.
	if n := strings.Count(out, "slow request"); n > 3 {
		t.Fatalf("%d slow lines, want <= 3 (rate limit)", n)
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

// TestAdminEndpoints is the regression test for the orphaned
// PublishExpvar surface: with the admin mux mounted, /metrics,
// /healthz, /statsz and /debug/vars must all answer, and /metrics
// must include the per-stage and per-shard families.
func TestAdminEndpoints(t *testing.T) {
	srv, addr, metrics := startTracedServer(t, 5000, LifecycleConfig{})
	driveMix(t, addr)
	metrics.PublishExpvar("pbtree_admin_test")

	ts := httptest.NewServer(NewAdminMux(srv, srv.st))
	defer ts.Close()
	get := func(path string) (int, string) {
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
	if code, body := get("/debug/vars"); code != http.StatusOK || !strings.Contains(body, "pbtree_admin_test") {
		t.Fatalf("/debug/vars = %d, expvar registry missing", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

// TestLifecycleDisabledIsInert pins the off switch: with the zero
// LifecycleConfig nothing is observed and STATS returns empty (but
// non-nil) maps.
func TestLifecycleDisabledIsInert(t *testing.T) {
	metrics := obs.NewMetrics()
	srv, addr := startServer(t, 1000, ServerConfig{Metrics: metrics})
	driveMix(t, addr)
	for _, op := range []core.OpKind{core.OpSearch, core.OpInsert} {
		if s := metrics.StageTotalSnapshot(op); s.Count != 0 {
			t.Fatalf("stages observed while disabled: %v %+v", op, s)
		}
	}
	stats := srv.Stats()
	if stats.Stages == nil || stats.StageTotals == nil {
		t.Fatal("stage maps must be non-nil even when disabled")
	}
	if len(stats.Stages) != 0 {
		t.Fatalf("unexpected stage data: %+v", stats.Stages)
	}
}
