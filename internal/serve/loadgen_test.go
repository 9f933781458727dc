package serve

import (
	"encoding/json"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestLoadgenConfigRoundTrip pins the reproducibility contract of the
// loadgen JSON report: the embedded config — after defaulting, which is
// what a run actually uses — must survive a JSON round trip unchanged,
// so a run can be replayed exactly from its report alone. This is what
// broke when Duration/Timeout were json:"-" and the skew parameters
// were omitempty.
func TestLoadgenConfigRoundTrip(t *testing.T) {
	cfg := LoadgenConfig{
		Addr:     "127.0.0.1:7070",
		Conns:    3,
		Window:   8,
		Duration: 1500 * time.Millisecond,
		PutPct:   7,
		Skew:     "zipf",
		Seed:     42,
		Timeout:  250 * time.Millisecond,
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	rep := LoadgenReport{Config: cfg, Ops: 1}
	blob, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	var back LoadgenReport
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Config, cfg) {
		t.Fatalf("config did not round-trip through the report:\n got %+v\nwant %+v", back.Config, cfg)
	}
	// The fields a replay needs must be present by name, not defaulted
	// back in on decode.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	var rawCfg map[string]json.RawMessage
	if err := json.Unmarshal(raw["config"], &rawCfg); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		"addr", "conns", "window", "duration_ns", "get_pct", "mget_pct",
		"scan_pct", "put_pct", "del_pct", "keys", "skew", "seed", "timeout_ns",
	} {
		if _, ok := rawCfg[field]; !ok {
			t.Errorf("report config is missing %q", field)
		}
	}
	// The window must be echoed even at its default of 1 — conns alone
	// does not determine concurrency any more.
	if string(rawCfg["window"]) != "8" {
		t.Errorf("window echoed as %s, want 8", rawCfg["window"])
	}
	// A defaulted config never marshals zero values for the knobs that
	// alter the workload, so absence of a field is always a bug.
	if string(rawCfg["seed"]) != "42" {
		t.Errorf("seed echoed as %s, want 42", rawCfg["seed"])
	}
	if string(rawCfg["duration_ns"]) != "1500000000" {
		t.Errorf("duration echoed as %s, want 1500000000", rawCfg["duration_ns"])
	}
}

// TestLoadgenReportRoundTrip pins the report fields that un-conflate
// connection count from concurrency: window, concurrency and the
// reject count must survive a JSON round trip by name.
func TestLoadgenReportRoundTrip(t *testing.T) {
	rep := LoadgenReport{
		Config:      LoadgenConfig{Conns: 4, Window: 16},
		Concurrency: 64,
		Ops:         10,
		Rejected:    5,
	}
	blob, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	var back LoadgenReport
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Concurrency != 64 || back.Config.Window != 16 || back.Rejected != 5 {
		t.Fatalf("concurrency/window/rejected did not round-trip: %+v", back)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"concurrency", "rejected"} {
		if _, ok := raw[field]; !ok {
			t.Errorf("report is missing %q", field)
		}
	}
}

// TestOpReportPercentiles pins the tail percentiles: they must
// survive a JSON round trip by name, p90 and p999 per op class.
func TestOpReportPercentiles(t *testing.T) {
	rep := LoadgenReport{PerOp: map[string]OpReport{
		"search": {Count: 9, P50US: 1, P90US: 2, P99US: 3, P999US: 4},
	}}
	blob, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	var back LoadgenReport
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.PerOp["search"]; got != rep.PerOp["search"] {
		t.Fatalf("per-op report did not round-trip: %+v", got)
	}
	var raw map[string]json.RawMessage
	json.Unmarshal(blob, &raw)
	var perOp map[string]map[string]json.RawMessage
	if err := json.Unmarshal(raw["per_op"], &perOp); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"p50_us", "p90_us", "p99_us", "p999_us"} {
		if _, ok := perOp["search"][field]; !ok {
			t.Errorf("per-op report is missing %q", field)
		}
	}
}

// TestLoadgenWindowed runs a real windowed loadgen against a server
// and checks the report reflects the configured concurrency.
func TestLoadgenWindowed(t *testing.T) {
	_, addr := startServer(t, 10_000, ServerConfig{})
	rep, err := RunLoadgen(LoadgenConfig{
		Addr:     addr,
		Conns:    2,
		Window:   8,
		Duration: 200 * time.Millisecond,
		Keys:     10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 || rep.Errors != 0 {
		t.Fatalf("windowed run: %d ops, %d errors", rep.Ops, rep.Errors)
	}
	if rep.Concurrency != 16 || rep.Config.Window != 8 {
		t.Fatalf("report concurrency = %d (window %d), want 16 (8)", rep.Concurrency, rep.Config.Window)
	}
	// A negative window is a setup error.
	if _, err := RunLoadgen(LoadgenConfig{Addr: addr, Window: -1, Duration: time.Millisecond}); err == nil {
		t.Fatal("negative window accepted")
	}
}

// TestLoadgenMeasuresDuration pins the report's clock: duration_ms is
// the elapsed run, from the clock start to the last worker's exit, and
// ops_per_sec is ops over that same span. The server refuses every
// scan, and each rejection backs off Timeout/100 — longer than the
// whole configured run — so the run outlasts its Duration and the
// report must say so.
func TestLoadgenMeasuresDuration(t *testing.T) {
	addr := scanRefusingServer(t)
	cfg := LoadgenConfig{
		Addr:     addr,
		Conns:    2,
		Window:   2,
		Duration: 50 * time.Millisecond,
		Keys:     10_000,
		GetPct:   50,
		ScanPct:  50,
		Timeout:  20 * time.Second,
	}
	begin := time.Now()
	rep, err := RunLoadgen(cfg)
	wall := time.Since(begin)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 || rep.Errors != 0 || rep.Rejected == 0 {
		t.Fatalf("bad run: %d ops, %d errors, %d rejected", rep.Ops, rep.Errors, rep.Rejected)
	}
	if rep.Config.Duration != cfg.Duration {
		t.Errorf("config echoes duration %v, want %v", rep.Config.Duration, cfg.Duration)
	}
	got := time.Duration(rep.DurationMS) * time.Millisecond
	if backoff := cfg.Timeout / 100; got < backoff || got > wall {
		t.Errorf("duration_ms %d outside [%v, %v]: the run backed off %v after a rejection",
			rep.DurationMS, backoff, wall, backoff)
	}
	implied := rep.Throughput * float64(rep.DurationMS) / 1000
	if math.Abs(implied-float64(rep.Ops)) > 0.02*float64(rep.Ops)+1 {
		t.Errorf("ops_per_sec %.1f x duration_ms %d = %.1f ops, report has %d",
			rep.Throughput, rep.DurationMS, implied, rep.Ops)
	}
}

// scanRefusingServer answers HELLO, every SCAN with StatusRetry and
// every other request with StatusNotFound (a GET miss), on a free port,
// until the test ends.
func scanRefusingServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	serve := func(c net.Conn) {
		defer wg.Done()
		defer c.Close()
		var frame, out []byte
		for {
			var err error
			if frame, err = ReadFrame(c, frame); err != nil {
				return
			}
			id, req, err := DecodeRequest(frame)
			if err != nil {
				return
			}
			resp := &Response{Status: StatusNotFound}
			switch req.Op {
			case OpHello:
				resp = &Response{Status: StatusOK, Version: ProtoVersion, Window: window}
			case OpScan:
				resp = &Response{Status: StatusRetry, RetryAfterMS: 1}
			}
			if out, err = appendResponseFrame(out[:0], id, resp); err != nil {
				return
			}
			if _, err = c.Write(out); err != nil {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go serve(c)
		}
	}()
	return ln.Addr().String()
}
