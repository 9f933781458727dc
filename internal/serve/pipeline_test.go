package serve

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"pbtree/internal/core"
)

// TestHello pins HELLO as a version check on the one protocol: Dial
// learns the window from it, it is answered under its ID wherever it
// appears, a peer that speaks less is refused in-band, and a legacy
// un-ID'd opener loses its connection and nothing else.
func TestHello(t *testing.T) {
	_, addr := startServer(t, 100, ServerConfig{})

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Window() != window {
		t.Fatalf("Dial learned window %d, want %d", cl.Window(), window)
	}
	if tid, ok, err := cl.Get(8); err != nil || !ok || tid != 1 {
		t.Fatalf("Get(8) = (%d, %v, %v)", tid, ok, err)
	}

	// Mid-stream, behind a GET in the same write: answered under its ID.
	c := dialRaw(t, addr)
	buf := appendFrame(t, nil, 1, &Request{Op: OpGet, Keys: []core.Key{8}})
	buf = appendFrame(t, buf, 42, &Request{Op: OpHello, MaxVersion: ProtoVersion})
	// A peer that speaks only version 1 (the encoder refuses to say so).
	old := appendFrame(t, nil, 43, &Request{Op: OpHello, MaxVersion: ProtoVersion})
	old[len(old)-1] = 1
	buf = append(buf, old...)
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	got := readResponses(t, c, 3)
	if rs := got[42]; rs == nil || rs.Status != StatusOK || rs.Version != ProtoVersion || rs.Window != window {
		t.Fatalf("mid-stream HELLO answered %+v, want OK version %d window %d", rs, ProtoVersion, window)
	}
	if rs := got[43]; rs == nil || rs.Status != StatusErr {
		t.Fatalf("HELLO max_version 1 answered %+v, want ERR", rs)
	}
	if _, err := c.Write(appendFrame(t, nil, 44, &Request{Op: OpGet, Keys: []core.Key{16}})); err != nil {
		t.Fatal(err)
	}
	if rs := readResponses(t, c, 1)[44]; rs == nil || rs.Status != StatusOK || rs.Lookups[0].TID != 2 {
		t.Fatalf("GET after the refused HELLO answered %+v", rs)
	}

	// A legacy opener has no ID to be answered under: the connection is
	// closed, and the server goes on serving others.
	legacy := dialRaw(t, addr)
	if err := writeFrame(legacy, []byte{byte(OpHello), 2}); err != nil {
		t.Fatal(err)
	}
	if frame, err := ReadFrame(legacy, nil); err != io.EOF {
		t.Fatalf("legacy opener answered (%x, %v), want the connection closed", frame, err)
	}
	cl2, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial after a legacy opener: %v", err)
	}
	cl2.Close()
}

// TestDialHandshakeDeadline: a peer that accepts and never answers
// fails Dial at the handshake deadline and leaves no read loop behind.
func TestDialHandshakeDeadline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	defer func(d time.Duration) { handshakeTimeout = d }(handshakeTimeout)
	handshakeTimeout = 50 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	start := time.Now()
	cl, err := Dial(ln.Addr().String())
	if err == nil {
		cl.Close()
		t.Fatal("Dial against a silent peer succeeded")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("Dial gave up after %v, handshake deadline is %v", took, handshakeTimeout)
	}
	waitGoroutines(t, baseline)
}

// TestPipelinedOutOfOrder drives one connection with many concurrent
// callers (this is the -race coverage of out-of-order response
// writing): every GET must come back with its own key's TID, so any
// ID mismatch in the concurrent read-ahead / out-of-order write path
// is a correctness failure, not just a race report.
func TestPipelinedOutOfOrder(t *testing.T) {
	const n = 5000
	_, addr := startServer(t, n, ServerConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 10 * time.Second

	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(seed uint32) {
			defer wg.Done()
			x := seed
			for i := 0; i < 400; i++ {
				x = x*1664525 + 1013904223
				switch x % 8 {
				case 0: // interleave slow scans with the cheap gets
					start := core.Key(8 * (1 + x%n))
					if _, err := cl.Scan(start, start+8000, 1000); err != nil {
						if !errors.As(err, new(*RetryError)) {
							t.Errorf("Scan: %v", err)
							return
						}
					}
				case 1:
					k := core.Key(8 * (1 + x%n))
					if err := cl.Put(core.Pair{Key: k, TID: core.TID(k / 8)}); err != nil {
						if !errors.As(err, new(*RetryError)) {
							t.Errorf("Put: %v", err)
							return
						}
					}
				default:
					k := core.Key(8 * (1 + x%n))
					tid, ok, err := cl.Get(k)
					if err != nil {
						if !errors.As(err, new(*RetryError)) {
							t.Errorf("Get(%d): %v", k, err)
							return
						}
						continue
					}
					if !ok || uint32(tid) != uint32(k)/8 {
						t.Errorf("Get(%d) = (%d, %v): response matched to wrong request", k, tid, ok)
						return
					}
				}
			}
		}(uint32(w + 1))
	}
	wg.Wait()
}

// TestClientGo exercises the async API directly: a burst of calls
// issued without waiting, then harvested; IDs must route every
// response to its own call.
func TestClientGo(t *testing.T) {
	const n = 2000
	_, addr := startServer(t, n, ServerConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	calls := make([]*Call, 64)
	for i := range calls {
		k := core.Key(8 * (i + 1))
		calls[i] = cl.Go(&Request{Op: OpGet, Keys: []core.Key{k}}, nil)
	}
	for i, call := range calls {
		<-call.Done
		if call.Err != nil {
			t.Fatalf("call %d: %v", i, call.Err)
		}
		want := core.TID(i + 1)
		if call.Resp.Status != StatusOK || len(call.Resp.Lookups) != 1 || call.Resp.Lookups[0].TID != want {
			t.Fatalf("call %d answered %+v, want TID %d", i, call.Resp, want)
		}
	}

	// After Close, new calls fail fast with ErrClientClosed.
	cl.Close()
	call := cl.Go(&Request{Op: OpGet, Keys: []core.Key{8}}, nil)
	<-call.Done
	if call.Err == nil {
		t.Fatal("Go on a closed client succeeded")
	}
}
