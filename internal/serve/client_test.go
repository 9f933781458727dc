package serve

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbtree/internal/core"
)

// TestLoopbackGetAllocates counts what one GET over loopback allocates,
// client and server together: the client's Call, request, key slice,
// decoded response and its lookups, and the server's decoded request
// and key slice. No frame header and no pending-call node allocates.
func TestLoopbackGetAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	_, addr := startServer(t, 5000, ServerConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	done := make(chan *Call, 1)
	get := func() {
		cl.Go(&Request{Op: OpGet, Keys: []core.Key{8}}, done)
		if call := <-done; call.Err != nil || call.Resp.Status != StatusOK {
			t.Fatalf("GET answered %+v, %v", call.Resp, call.Err)
		}
	}
	for i := 0; i < 100; i++ { // grow every buffer first
		get()
	}
	if n := testing.AllocsPerRun(1000, get); n > 7 {
		t.Fatalf("a loopback GET allocates %v times, want <= 7", n)
	}
}

// countingConn counts the writes a client makes to its connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestClientCoalescesWrites: on one processor, concurrent callers'
// requests share write(2)s, while a lone caller's request leaves at
// once — one write each, none waiting for company that never comes.
func TestClientCoalescesWrites(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, addr := startServer(t, 5000, ServerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: conn}
	cl := newClient(cc)
	defer cl.Close()

	const seq = 200
	for i := 0; i < seq; i++ {
		if tid, ok, err := cl.Get(8); err != nil || !ok || tid != 1 {
			t.Fatalf("sequential Get %d = (%d, %v, %v)", i, tid, ok, err)
		}
	}
	if n := cc.writes.Load(); n != seq {
		t.Fatalf("%d sequential calls made %d writes, want %d", seq, n, seq)
	}

	const callers, each = 16, 200
	cc.writes.Store(0)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if tid, ok, err := cl.Get(8); err != nil || !ok || tid != 1 {
					t.Errorf("concurrent Get = (%d, %v, %v)", tid, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	n := cc.writes.Load()
	t.Logf("%d concurrent calls made %d writes", callers*each, n)
	if n > callers*each/4 {
		t.Fatalf("%d concurrent calls made %d writes, want <= %d", callers*each, n, callers*each/4)
	}
}

// TestClientCallsCompleteOnConnLoss: callers keep issuing calls while
// the peer closes the connection. Every call completes, those in
// flight with the failure and later ones with the same sticky error,
// and the client's reader and writer exit. A call registered after the
// failure swept the pending calls, or queued after the writer exited,
// would never complete.
func TestClientCallsCompleteOnConnLoss(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var peers sync.WaitGroup
	defer func() {
		ln.Close()
		peers.Wait()
		waitGoroutines(t, baseline)
	}()
	// The peer answers up to a few hundred requests, then closes
	// mid-stream, so the failure meets callers at every stage of a call.
	peers.Add(1)
	go func() {
		defer peers.Done()
		for conns := 0; ; conns++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			var frame, out []byte
			for answered := 0; answered < 20*(conns%16); answered++ {
				if frame, err = ReadFrame(c, frame); err != nil {
					break
				}
				id, _, _ := DecodeRequest(frame)
				out, _ = appendResponseFrame(out[:0], id, &Response{Status: StatusNotFound})
				if _, err = c.Write(out); err != nil {
					break
				}
			}
			c.Close()
		}
	}()

	const rounds, callers, depth = 50, 32, 8
	for round := 0; round < rounds; round++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		cl := newClient(conn)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				done := make(chan *Call, depth)
				for errs[g] == nil {
					for i := 0; i < depth; i++ {
						cl.Go(&Request{Op: OpGet, Keys: []core.Key{8}}, done)
					}
					timeout := time.After(2 * time.Second)
					for i := 0; i < depth; i++ {
						select {
						case call := <-done:
							if errs[g] == nil {
								errs[g] = call.Err
							}
						case <-timeout:
							t.Errorf("round %d: a call did not complete within 2s of being issued", round)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			cl.Close()
			return
		}
		_, _, sticky := cl.Get(8)
		for g, err := range errs {
			if err != sticky {
				t.Fatalf("round %d: caller %d failed with %v, a later call with %v", round, g, err, sticky)
			}
		}
		cl.Close()
	}
}
