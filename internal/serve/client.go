package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pbtree/internal/core"
)

// RetryError reports a StatusRetry rejection; the caller should back
// off for After and retry.
type RetryError struct {
	After time.Duration // the server's class-specific backoff hint
}

// Error describes the rejection with its backoff hint.
func (e *RetryError) Error() string {
	return fmt.Sprintf("serve: server overloaded, retry after %v", e.After)
}

// DeadlineError reports that the request's deadline expired — on the
// server before execution, or on the client waiting for the response.
type DeadlineError struct{}

// Error names the expired deadline.
func (*DeadlineError) Error() string { return "serve: request deadline expired" }

// ErrClientClosed reports a call on a closed or failed client.
var ErrClientClosed = errors.New("serve: client closed")

// Call is one in-flight asynchronous request issued with Client.Go.
// When the call completes, Resp/Err are set and the call is delivered
// on Done.
type Call struct {
	Req  *Request   // the request as sent
	Resp *Response  // the decoded response (nil on transport error)
	Err  error      // transport or decode error
	Done chan *Call // receives the call itself on completion

	id uint32 // wire request ID
}

// finish delivers the call; a full Done channel drops the notification
// (as in net/rpc, the caller is expected to size it).
func (c *Call) finish() {
	select {
	case c.Done <- c:
	default:
	}
}

// Client is a wire-protocol client over one TCP connection, which is a
// full-duplex pipeline: any number of goroutines may issue calls
// concurrently (Go, or the synchronous wrappers), the client tags each
// with a request ID, and a reader goroutine matches responses — which
// the server may send in any order — back to their callers.
type Client struct {
	// Timeout, when nonzero, bounds each call: it is sent as the
	// request deadline and bounds the local wait for the response.
	Timeout time.Duration

	window uint32 // server's per-connection pipeline depth

	conn net.Conn
	br   *bufio.Reader // owned by readLoop

	// Concurrent senders serialize on sendMu; readLoop completes the
	// pending calls.
	sendMu  sync.Mutex
	out     []byte
	bw      *bufio.Writer
	nextID  atomic.Uint32
	pending sync.Map // uint32 -> *Call
	failed  atomic.Pointer[error]
	closed  atomic.Bool
}

// handshakeTimeout bounds Dial's HELLO exchange, so a peer that accepts
// the connection and never answers cannot hang it.
var handshakeTimeout = 10 * time.Second

// Dial connects to a server and checks with a HELLO that it speaks this
// protocol (PROTOCOL.md §3), learning its pipeline window.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	go c.readLoop()
	// HELLO is an ordinary call; the connection deadline fails it, and
	// with it the read loop, if no answer comes.
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	rs, err := c.call(&Request{Op: OpHello, MaxVersion: ProtoVersion})
	if err == nil {
		err = statusErr(rs)
	}
	if err == nil && rs.Version != ProtoVersion {
		err = fmt.Errorf("serve: server speaks protocol version %d, want %d", rs.Version, ProtoVersion)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	c.window = rs.Window
	return c, nil
}

// Window reports the server's per-connection pipeline depth.
func (c *Client) Window() uint32 { return c.window }

// Close closes the connection; in-flight calls fail with
// ErrClientClosed.
func (c *Client) Close() error {
	c.closed.Store(true)
	return c.conn.Close()
}

// Go issues req asynchronously and returns its Call; the call is
// delivered on done (a fresh one-buffered channel when nil) once the
// response arrives or the transport fails.
func (c *Client) Go(req *Request, done chan *Call) *Call {
	if done == nil {
		done = make(chan *Call, 1)
	}
	call := &Call{Req: req, Done: done}
	if err := c.broken(); err != nil {
		call.Err = err
		call.finish()
		return call
	}
	if c.Timeout > 0 {
		req.DeadlineMS = uint32(c.Timeout / time.Millisecond)
	}
	id := c.nextID.Add(1)
	call.id = id
	c.pending.Store(id, call)
	c.sendMu.Lock()
	payload, err := AppendRequest(c.out[:0], id, req)
	if err == nil {
		c.out = payload
		if c.Timeout > 0 {
			c.conn.SetWriteDeadline(time.Now().Add(c.Timeout))
		}
		if err = WriteFrame(c.bw, payload); err == nil {
			err = c.bw.Flush()
		}
	}
	c.sendMu.Unlock()
	if err != nil {
		if _, loaded := c.pending.LoadAndDelete(id); loaded {
			call.Err = err
			call.finish()
		}
	}
	return call
}

// broken reports the sticky transport error, if any.
func (c *Client) broken() error {
	if c.closed.Load() {
		return ErrClientClosed
	}
	if p := c.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// readLoop is the response dispatcher: it matches response
// IDs to pending calls for as long as the connection lives, then fails
// whatever is left.
func (c *Client) readLoop() {
	var buf []byte
	var err error
	for {
		var frame []byte
		frame, err = ReadFrame(c.br, buf)
		if err != nil {
			break
		}
		buf = frame
		id, rs, derr := DecodeResponse(frame)
		if derr != nil {
			err = derr
			break
		}
		if v, ok := c.pending.LoadAndDelete(id); ok {
			call := v.(*Call)
			call.Resp = rs
			call.finish()
		}
		// An unknown ID is a response to an abandoned (timed-out)
		// call: drop it.
	}
	if c.closed.Load() {
		err = ErrClientClosed
	}
	c.failed.Store(&err)
	c.conn.Close()
	c.pending.Range(func(k, v any) bool {
		if _, ok := c.pending.LoadAndDelete(k); ok {
			call := v.(*Call)
			call.Err = err
			call.finish()
		}
		return true
	})
}

// call runs one request synchronously.
func (c *Client) call(req *Request) (*Response, error) {
	call := c.Go(req, nil)
	if c.Timeout <= 0 {
		<-call.Done
		return call.Resp, call.Err
	}
	// Grace on top of the wire deadline: the server's own deadline
	// answer normally arrives first; the timer only fires when the
	// response went missing entirely.
	timer := time.NewTimer(c.Timeout + 250*time.Millisecond)
	defer timer.Stop()
	select {
	case <-call.Done:
		return call.Resp, call.Err
	case <-timer.C:
		// Abandon: the reader drops the late response by its ID.
		c.pending.Delete(call.id)
		return nil, &DeadlineError{}
	}
}

// statusErr maps non-OK statuses onto errors; StatusNotFound is left
// to the caller (it is a result, not a failure).
func statusErr(rs *Response) error {
	switch rs.Status {
	case StatusOK, StatusNotFound:
		return nil
	case StatusRetry:
		return &RetryError{After: time.Duration(rs.RetryAfterMS) * time.Millisecond}
	case StatusDeadline:
		return &DeadlineError{}
	default:
		return fmt.Errorf("serve: server error: %s", rs.Err)
	}
}

// Get looks up one key.
func (c *Client) Get(k core.Key) (core.TID, bool, error) {
	rs, err := c.call(&Request{Op: OpGet, Keys: []core.Key{k}})
	if err != nil {
		return 0, false, err
	}
	if err := statusErr(rs); err != nil {
		return 0, false, err
	}
	if rs.Status == StatusNotFound {
		return 0, false, nil
	}
	if len(rs.Lookups) != 1 {
		return 0, false, fmt.Errorf("serve: GET returned %d lookups", len(rs.Lookups))
	}
	return rs.Lookups[0].TID, true, nil
}

// MGet looks up a batch of keys; the result aligns with keys.
func (c *Client) MGet(keys []core.Key) ([]Lookup, error) {
	rs, err := c.call(&Request{Op: OpMGet, Keys: keys})
	if err != nil {
		return nil, err
	}
	if err := statusErr(rs); err != nil {
		return nil, err
	}
	if len(rs.Lookups) != len(keys) {
		return nil, fmt.Errorf("serve: MGET returned %d lookups for %d keys", len(rs.Lookups), len(keys))
	}
	return rs.Lookups, nil
}

// Scan returns up to limit pairs with keys in [start, end].
func (c *Client) Scan(start, end core.Key, limit int) ([]core.Pair, error) {
	rs, err := c.call(&Request{Op: OpScan, Start: start, End: end, Limit: uint32(limit)})
	if err != nil {
		return nil, err
	}
	if err := statusErr(rs); err != nil {
		return nil, err
	}
	return rs.Pairs, nil
}

// Put upserts the pairs (one atomic unit per shard).
func (c *Client) Put(pairs ...core.Pair) error {
	rs, err := c.call(&Request{Op: OpPut, Pairs: pairs})
	if err != nil {
		return err
	}
	return statusErr(rs)
}

// Del deletes the keys.
func (c *Client) Del(keys ...core.Key) error {
	rs, err := c.call(&Request{Op: OpDel, Keys: keys})
	if err != nil {
		return err
	}
	return statusErr(rs)
}

// Do performs one raw request/response exchange — the escape hatch
// for op classes without a dedicated helper (the replication loops
// drive REPLICATE through it). The response is returned as decoded,
// whatever its status; only transport failures error.
func (c *Client) Do(req *Request) (*Response, error) {
	return c.call(req)
}

// Stats fetches the server's JSON stats blob.
func (c *Client) Stats() ([]byte, error) {
	rs, err := c.call(&Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	if err := statusErr(rs); err != nil {
		return nil, err
	}
	return rs.Stats, nil
}

// ScanOpen registers a streaming-scan cursor over [start, end] on the
// server and returns its ID (PROTOCOL.md §10). The cursor pins a
// snapshot of every shard until ScanClose, exhaustion, connection
// close, or the server's idle timeout.
func (c *Client) ScanOpen(start, end core.Key) (uint64, error) {
	rs, err := c.call(&Request{Op: OpScanOpen, Start: start, End: end})
	if err != nil {
		return 0, err
	}
	if err := statusErr(rs); err != nil {
		return 0, err
	}
	if rs.Cursor == 0 {
		return 0, fmt.Errorf("serve: SCANOPEN answered no cursor")
	}
	return rs.Cursor, nil
}

// ScanNext pulls the next chunk of up to maxRows rows from a cursor.
// done reports that the scan is exhausted, in which case the server
// has already closed the cursor. A cursor the server no longer knows
// (closed, exhausted, or reaped idle) errors with ErrCursorGone.
func (c *Client) ScanNext(cursor uint64, maxRows int) (rows []core.Pair, done bool, err error) {
	rs, err := c.call(&Request{Op: OpScanNext, Cursor: cursor, Max: uint32(maxRows)})
	if err != nil {
		return nil, false, err
	}
	if rs.Status == StatusNotFound {
		return nil, false, ErrCursorGone
	}
	if err := statusErr(rs); err != nil {
		return nil, false, err
	}
	if !rs.ScanChunk {
		return nil, false, fmt.Errorf("serve: SCANNEXT answered a non-chunk payload")
	}
	return rs.Pairs, rs.ScanDone, nil
}

// ScanClose releases a cursor. Closing a cursor the server no longer
// knows errors with ErrCursorGone — harmless after an exhausted scan,
// meaningful after an idle timeout.
func (c *Client) ScanClose(cursor uint64) error {
	rs, err := c.call(&Request{Op: OpScanClose, Cursor: cursor})
	if err != nil {
		return err
	}
	if rs.Status == StatusNotFound {
		return ErrCursorGone
	}
	return statusErr(rs)
}

// ErrCursorGone reports a streaming-scan op against a cursor the
// server no longer holds: never opened, already closed, exhausted, or
// reclaimed by the idle reaper.
var ErrCursorGone = errors.New("serve: scan cursor gone")

// StreamScan runs a whole streaming scan: it opens a cursor over
// [start, end], pulls chunks of chunkRows, calls yield for each, and
// closes the cursor (also on error or when yield returns false).
func (c *Client) StreamScan(start, end core.Key, chunkRows int, yield func(rows []core.Pair) bool) error {
	cur, err := c.ScanOpen(start, end)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			c.ScanClose(cur)
		}
	}()
	for {
		rows, done, err := c.ScanNext(cur, chunkRows)
		if err != nil {
			return err
		}
		if len(rows) > 0 && !yield(rows) {
			return c.closeOnce(cur, &closed)
		}
		if done {
			closed = true
			return nil
		}
	}
}

// closeOnce closes cur and marks it closed, tolerating a cursor the
// server already reclaimed.
func (c *Client) closeOnce(cur uint64, closed *bool) error {
	*closed = true
	if err := c.ScanClose(cur); err != nil && !errors.Is(err, ErrCursorGone) {
		return err
	}
	return nil
}
