package serve

// Tests for the streaming-scan ops and their STATS surface: end-to-end
// cursor correctness, snapshot isolation under interleaved writes on
// one pipelined connection (run with -race), idle-cursor reclamation,
// and the scan bound — a SCAN asks for at most one chunk's rows, a
// stream of 100k+ rows completes.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pbtree/internal/core"
)

// collectStream pulls a whole stream through the raw cursor ops.
func collectStream(t *testing.T, cl *Client, start, end core.Key, chunk int) []core.Pair {
	t.Helper()
	var got []core.Pair
	if err := cl.StreamScan(start, end, chunk, func(rows []core.Pair) bool {
		got = append(got, rows...)
		return true
	}); err != nil {
		t.Fatalf("StreamScan: %v", err)
	}
	return got
}

func TestStreamScanEndToEnd(t *testing.T) {
	const n = 5000
	srv, addr := startServer(t, n, ServerConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 5 * time.Second

	// The stream must equal the monolithic scan, chunk size be damned.
	want, err := cl.Scan(0, core.Key(8*n), n)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 256, n + 1} {
		got := collectStream(t, cl, 0, core.Key(8*n), chunk)
		if len(got) != len(want) {
			t.Fatalf("chunk %d: stream returned %d rows, scan %d", chunk, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: row %d = %v, want %v", chunk, i, got[i], want[i])
			}
		}
	}

	// Exhaustion closes the cursor server-side: the next SCANNEXT and
	// an explicit SCANCLOSE both answer cursor-gone.
	cur, err := cl.ScanOpen(0, core.Key(8*n))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, done, err := cl.ScanNext(cur, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if _, _, err := cl.ScanNext(cur, 16); !errors.Is(err, ErrCursorGone) {
		t.Fatalf("SCANNEXT after exhaustion: %v, want ErrCursorGone", err)
	}
	if err := cl.ScanClose(cur); !errors.Is(err, ErrCursorGone) {
		t.Fatalf("SCANCLOSE after exhaustion: %v, want ErrCursorGone", err)
	}
	if open := srv.cursorStats().Open; open != 0 {
		t.Fatalf("cursors open after exhaustion = %d, want 0", open)
	}

	// SCANNEXT against a never-opened cursor answers cursor-gone, not
	// an error.
	if _, _, err := cl.ScanNext(12345, 16); !errors.Is(err, ErrCursorGone) {
		t.Fatalf("SCANNEXT on bogus cursor: %v, want ErrCursorGone", err)
	}

	// An explicit close releases the cursor exactly once.
	cur, err = cl.ScanOpen(0, core.Key(8*n))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.ScanClose(cur); err != nil {
		t.Fatal(err)
	}
	if err := cl.ScanClose(cur); !errors.Is(err, ErrCursorGone) {
		t.Fatalf("double SCANCLOSE: %v, want ErrCursorGone", err)
	}
}

// TestStreamScanSnapshotIsolation pins the cursor's claim: rows come
// from the snapshots pinned at SCANOPEN, whatever lands afterwards.
func TestStreamScanSnapshotIsolation(t *testing.T) {
	const n = 2000
	_, addr := startServer(t, n, ServerConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 5 * time.Second

	cur, err := cl.ScanOpen(0, core.Key(16*n))
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite every key and insert new ones between existing keys
	// after the cursor pinned its snapshots.
	const sentinel = 1 << 20 // far above any TID SortedPairs hands out
	for k := core.Key(8); k <= core.Key(8*n); k += 8 {
		if err := cl.Put(core.Pair{Key: k, TID: sentinel}, core.Pair{Key: k + 1, TID: sentinel + 1}); err != nil {
			t.Fatal(err)
		}
	}
	var got []core.Pair
	for {
		rows, done, err := cl.ScanNext(cur, 512)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rows...)
		if done {
			break
		}
	}
	if len(got) != n {
		t.Fatalf("stream saw %d rows, want the %d pinned at open", len(got), n)
	}
	for i, p := range got {
		if p.TID >= sentinel {
			t.Fatalf("row %d = %v leaked a post-open write into the pinned snapshot", i, p)
		}
	}
}

// TestStreamScanInterleaved drives a streaming scan and pipelined
// GET/PUT traffic concurrently over ONE connection — the cursor must
// survive interleaving with other in-flight requests (run with -race).
func TestStreamScanInterleaved(t *testing.T) {
	const n = 20_000
	_, addr := startServer(t, n, ServerConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 10 * time.Second

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := core.Key(8 * (w + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := cl.Get(k); err != nil {
					t.Errorf("interleaved GET: %v", err)
					return
				}
				if err := cl.Put(core.Pair{Key: k, TID: core.TID(w)}); err != nil {
					var retry *RetryError
					if errors.As(err, &retry) {
						time.Sleep(retry.After)
						continue
					}
					t.Errorf("interleaved PUT: %v", err)
					return
				}
			}
		}(w)
	}

	// Two streams share the connection with the point traffic.
	for i := 0; i < 2; i++ {
		rows := collectStream(t, cl, 0, core.Key(8*n), 128)
		if len(rows) < n {
			t.Errorf("stream %d returned %d rows, want >= %d", i, len(rows), n)
		}
		last := core.Key(0)
		for _, p := range rows {
			if p.Key < last {
				t.Fatalf("stream %d out of order: %d after %d", i, p.Key, last)
			}
			last = p.Key
		}
	}
	close(stop)
	wg.Wait()
}

// TestCursorTimeout pins idle reclamation: an abandoned cursor's
// snapshots are released by the reaper and its ID answers cursor-gone.
func TestCursorTimeout(t *testing.T) {
	const n = 1000
	srv, addr := startServer(t, n, ServerConfig{CursorTimeout: 50 * time.Millisecond})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 5 * time.Second

	cur, err := cl.ScanOpen(0, core.Key(8*n))
	if err != nil {
		t.Fatal(err)
	}
	if open := srv.cursorStats().Open; open != 1 {
		t.Fatalf("cursors open = %d, want 1", open)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.cursorStats().Open != 0 {
		if time.Now().After(deadline) {
			t.Fatal("reaper never reclaimed the idle cursor")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cs := srv.cursorStats()
	if cs.Timeouts == 0 {
		t.Fatalf("cursor stats = %+v, want a recorded timeout", cs)
	}
	if _, _, err := cl.ScanNext(cur, 16); !errors.Is(err, ErrCursorGone) {
		t.Fatalf("SCANNEXT on reaped cursor: %v, want ErrCursorGone", err)
	}

	// A cursor that keeps pulling chunks stays alive across many
	// timeout periods: lastUsed refreshes per SCANNEXT.
	cur, err = cl.ScanOpen(0, core.Key(8*n))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		time.Sleep(20 * time.Millisecond)
		if _, _, err := cl.ScanNext(cur, 1); err != nil {
			t.Fatalf("chunk %d on a live cursor: %v", i, err)
		}
	}
	if err := cl.ScanClose(cur); err != nil {
		t.Fatal(err)
	}
}

// TestConnCloseReleasesCursors pins connection-teardown reclamation.
func TestConnCloseReleasesCursors(t *testing.T) {
	const n = 1000
	srv, addr := startServer(t, n, ServerConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	cl.Timeout = 5 * time.Second
	for i := 0; i < 3; i++ {
		if _, err := cl.ScanOpen(0, core.Key(8*n)); err != nil {
			t.Fatal(err)
		}
	}
	if open := srv.cursorStats().Open; open != 3 {
		t.Fatalf("cursors open = %d, want 3", open)
	}
	cl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.cursorStats().Open != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("connection close left %d cursors open", srv.cursorStats().Open)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamScanPastScanLimit: a stream of 120k rows, nearly twice
// what one SCAN may ask for, completes in 256-row chunks and leaves no
// cursor open.
func TestStreamScanPastScanLimit(t *testing.T) {
	const n = 120_000
	srv, addr := startServer(t, n, ServerConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 30 * time.Second

	total := 0
	if err := cl.StreamScan(0, core.Key(8*n), 256, func(rows []core.Pair) bool {
		total += len(rows)
		return true
	}); err != nil {
		t.Fatalf("StreamScan: %v", err)
	}
	if total != n {
		t.Fatalf("stream returned %d rows, want %d", total, n)
	}
	if open := srv.cursorStats().Open; open != 0 {
		t.Fatalf("cursors open after stream = %d, want 0", open)
	}
}

// TestScanLimitIsOneChunk pins the one SCAN bound: a SCAN may ask for
// at most one chunk's rows. A larger one fails at once with an error
// that is not a retry — no attempt could ever run it — and one of
// exactly MaxScanRows rows is served.
func TestScanLimitIsOneChunk(t *testing.T) {
	const n = 70_000
	_, addr := startServer(t, n, ServerConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 10 * time.Second

	begin := time.Now()
	if _, err := cl.Scan(0, core.Key(8*n), 100_000); err == nil || errors.As(err, new(*RetryError)) {
		t.Fatalf("SCAN of 100000 rows: %v, want an error that is not a retry", err)
	}
	if took := time.Since(begin); took > time.Second {
		t.Fatalf("SCAN of 100000 rows took %v to fail", took)
	}
	pairs, err := cl.Scan(0, core.Key(8*n), MaxScanChunk)
	if err != nil || len(pairs) != MaxScanChunk {
		t.Fatalf("SCAN of %d rows: %d rows, %v", MaxScanChunk, len(pairs), err)
	}
}

// TestCursorPlaneStats pins the STATS surface of a connection's
// pipeline: the window and the cursor table are reported.
func TestCursorPlaneStats(t *testing.T) {
	const n = 100
	srv, addr := startServer(t, n, ServerConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 5 * time.Second
	if _, _, err := cl.Get(8); err != nil {
		t.Fatal(err)
	}
	ss := srv.Stats()
	if ss.Window != window {
		t.Fatalf("stats window = %d, want %d", ss.Window, window)
	}
	if ss.Cursors.MaxConn != maxConnCursors {
		t.Fatalf("stats cursor cap = %d, want %d", ss.Cursors.MaxConn, maxConnCursors)
	}
}

// TestConnCursorCap pins the per-connection cursor bound: SCANOPEN
// past the cap answers StatusRetry, and closing one cursor frees a
// slot.
func TestConnCursorCap(t *testing.T) {
	const n = 500
	_, addr := startServer(t, n, ServerConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 5 * time.Second
	ids := make([]uint64, 0, maxConnCursors)
	for i := 0; i < maxConnCursors; i++ {
		id, err := cl.ScanOpen(0, core.Key(8*n))
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	if _, err := cl.ScanOpen(0, core.Key(8*n)); !errors.As(err, new(*RetryError)) {
		t.Fatalf("open past cap: %v, want RetryError", err)
	}
	if err := cl.ScanClose(ids[0]); err != nil {
		t.Fatal(err)
	}
	id, err := cl.ScanOpen(0, core.Key(8*n))
	if err != nil {
		t.Fatalf("open after freeing a slot: %v", err)
	}
	if err := cl.ScanClose(id); err != nil {
		t.Fatal(err)
	}
}
