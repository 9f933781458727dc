package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"pbtree/internal/core"
	"pbtree/internal/obs"
	"pbtree/internal/workload"
)

// startServer boots a store and server on a free port. Its cleanup
// shuts both down and checks that every goroutine they (and the test's
// clients) started is gone.
func startServer(t *testing.T, n int, cfg ServerConfig) (*Server, string) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	st, err := Open(StoreConfig{Shards: 2}, workload.SortedPairs(n))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Addr = "127.0.0.1:0"
	srv := NewServer(st, cfg)
	if err := srv.Start(); err != nil {
		st.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Shutdown(2 * time.Second)
		st.Close()
		waitGoroutines(t, baseline)
	})
	return srv, srv.Addr().String()
}

// waitGoroutines fails the test unless the goroutine count comes back
// down to baseline. Client read loops exit on their own once the
// connection is closed; they get a moment before it is called a leak.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(wait) {
			buf := make([]byte, 1<<16)
			t.Errorf("%d goroutines left, %d at the start:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
			return
		}
	}
}

func TestServerEndToEnd(t *testing.T) {
	const n = 5000
	metrics := obs.NewMetrics()
	_, addr := startServer(t, n, ServerConfig{Metrics: metrics})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 5 * time.Second

	// GET hit and miss.
	if tid, ok, err := cl.Get(8); err != nil || !ok || tid != 1 {
		t.Fatalf("Get(8) = (%d, %v, %v)", tid, ok, err)
	}
	if _, ok, err := cl.Get(3); err != nil || ok {
		t.Fatalf("Get(3) = (%v, %v)", ok, err)
	}
	// MGET aligns with keys.
	keys := []core.Key{8, 3, 80, 800}
	ls, err := cl.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	want := []Lookup{{TID: 1, Found: true}, {Found: false}, {TID: 10, Found: true}, {TID: 100, Found: true}}
	for i := range want {
		if ls[i] != want[i] {
			t.Fatalf("MGet[%d] = %+v, want %+v", i, ls[i], want[i])
		}
	}
	// PUT then GET reads the write; DEL removes it.
	if err := cl.Put(core.Pair{Key: 8 * (n + 1), TID: 7}); err != nil {
		t.Fatal(err)
	}
	if tid, ok, _ := cl.Get(8 * (n + 1)); !ok || tid != 7 {
		t.Fatalf("read-your-write = (%d, %v)", tid, ok)
	}
	if err := cl.Del(8 * (n + 1)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := cl.Get(8 * (n + 1)); ok {
		t.Fatal("deleted key still served")
	}
	// SCAN returns the range in order; empty ranges are fine.
	pairs, err := cl.Scan(16, 80, 100)
	if err != nil || len(pairs) != 9 {
		t.Fatalf("Scan = %d pairs, %v", len(pairs), err)
	}
	if empty, err := cl.Scan(1, 3, 10); err != nil || len(empty) != 0 {
		t.Fatalf("empty Scan = %d pairs, %v", len(empty), err)
	}
	// STATS is JSON and counts the traffic above.
	blob, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var ss ServerStats
	if err := json.Unmarshal(blob, &ss); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, blob)
	}
	if ss.Ops["get"] < 4 || ss.Ops["mget"] != 1 || ss.Ops["scan"] != 2 || ss.Store.Count != n {
		t.Fatalf("stats miscounted: %+v", ss)
	}
	// Metrics observed the wall-clock ops.
	if got := metrics.Snapshot(core.OpSearch).Count; got < 5 {
		t.Fatalf("metrics saw %d searches", got)
	}
	if got := metrics.Snapshot(core.OpScan).Count; got != 2 {
		t.Fatalf("metrics saw %d scans", got)
	}
}

// TestServerConcurrentClients reads through eight connections at once:
// every GET must come back with its own key's TID.
func TestServerConcurrentClients(t *testing.T) {
	const n = 5000
	_, addr := startServer(t, n, ServerConfig{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(seed uint32) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			x := seed
			for i := 0; i < 300; i++ {
				x = x*1664525 + 1013904223
				k := core.Key(8 * (1 + x%n))
				tid, ok, err := cl.Get(k)
				if err != nil || !ok || uint32(tid) != uint32(k)/8 {
					t.Errorf("Get(%d) = (%d, %v, %v)", k, tid, ok, err)
					return
				}
			}
		}(uint32(c + 1))
	}
	wg.Wait()
}

func TestServerRejectsAndBadFrames(t *testing.T) {
	_, addr := startServer(t, 100, ServerConfig{})
	// A malformed body behind a readable ID gets StatusErr under that
	// ID, and the connection survives.
	conn := dialRaw(t, addr)
	if err := writeFrame(conn, []byte{9, 0, 0, 0, 0xEE}); err != nil {
		t.Fatal(err)
	}
	if rs := readResponses(t, conn, 1)[9]; rs == nil || rs.Status != StatusErr {
		t.Fatalf("bad frame answer: %+v", rs)
	}
	if _, err := conn.Write(appendFrame(t, nil, 10, &Request{Op: OpGet, Keys: []core.Key{8}})); err != nil {
		t.Fatal(err)
	}
	if rs := readResponses(t, conn, 1)[10]; rs == nil || rs.Status != StatusOK {
		t.Fatalf("valid request after bad frame: %+v", rs)
	}
	// A frame too short to carry an ID cannot be answered: closed.
	if err := writeFrame(conn, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	if frame, err := ReadFrame(conn, nil); err != io.EOF {
		t.Fatalf("1-byte frame answered (%x, %v), want the connection closed", frame, err)
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	srv, addr := startServer(t, 1000, ServerConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Get(8); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Connections are closed and new dials fail.
	if _, _, err := cl.Get(8); err == nil {
		t.Fatal("request succeeded after shutdown")
	}
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		c.Close()
		t.Fatal("dial succeeded after shutdown")
	}
	// Shutdown is idempotent.
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestLoadgenAgainstServer(t *testing.T) {
	_, addr := startServer(t, 10_000, ServerConfig{})
	rep, err := RunLoadgen(LoadgenConfig{
		Addr:     addr,
		Conns:    4,
		Duration: 300 * time.Millisecond,
		Keys:     10_000,
		Skew:     "zipf",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 {
		t.Fatalf("loadgen did zero ops: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("loadgen saw %d hard errors", rep.Errors)
	}
	if rep.PerOp["search"].Count == 0 {
		t.Fatalf("no search latencies recorded: %+v", rep.PerOp)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report not JSON-marshalable: %v", err)
	}
	// Bad skew is a setup error.
	if _, err := RunLoadgen(LoadgenConfig{Addr: addr, Skew: "nope", Duration: time.Millisecond}); err == nil {
		t.Fatal("unknown skew accepted")
	}
}

// TestLoadgenStageAttribution runs loadgen against a lifecycle-traced
// server and checks the attribution STATS reports for the run: the
// named stages must cover at least 90% of each op's server-side time
// (the acceptance bar for the instrumentation being complete).
func TestLoadgenStageAttribution(t *testing.T) {
	srv, addr := startServer(t, 10_000, ServerConfig{})
	rep, err := RunLoadgen(LoadgenConfig{
		Addr:     addr,
		Conns:    2,
		Window:   4,
		Duration: 300 * time.Millisecond,
		Keys:     10_000,
		PutPct:   20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 || rep.Errors != 0 {
		t.Fatalf("bad run: %+v", rep)
	}
	stats := srv.Stats()
	if len(stats.Stages) == 0 || len(stats.StageTotals) == 0 {
		t.Fatalf("no stage attribution: %+v", stats.Stages)
	}
	for op, tot := range stats.StageTotals {
		var named int64
		for st, d := range stats.Stages[op] {
			if st != "read" && st != "other" {
				named += d.SumNS
			}
		}
		other := stats.Stages[op]["other"].SumNS
		if float64(named) < 0.90*float64(tot.SumNS-other) {
			t.Errorf("%s: named stages cover %dns of %dns total", op, named, tot.SumNS)
		}
		if float64(other) > 0.10*float64(tot.SumNS) {
			t.Errorf("%s: unattributed remainder is %.0f%% of the total (want < 10%%)",
				op, 100*float64(other)/float64(tot.SumNS))
		}
	}
}

func TestWriteOverloadMapsToRetry(t *testing.T) {
	// Direct unit check of the error mapping (driving a real server
	// into sustained overload is too timing-dependent for CI); a
	// partly enqueued write is not "no effect", so it is no retry.
	s := &Server{}
	if rs := s.writeResult(ErrPartialWrite); rs == nil || rs.Status != StatusErr {
		t.Fatalf("partial write mapped to %+v", rs)
	}
	rs := s.writeResult(ErrOverloaded)
	if rs == nil || rs.Status != StatusRetry || rs.RetryAfterMS != 5 {
		t.Fatalf("overload mapped to %+v", rs)
	}
	if rs := s.writeResult(nil); rs != nil {
		t.Fatalf("nil error mapped to %+v", rs)
	}
	if rs := s.writeResult(errors.New("x")); rs == nil || rs.Status != StatusErr {
		t.Fatalf("generic error mapped to %+v", rs)
	}
}
