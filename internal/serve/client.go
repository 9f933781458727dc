package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
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
// the server may send in any order — back to their callers. A writer
// goroutine sends the frames: whatever calls queued while it was busy
// leave together, in one write(2).
type Client struct {
	// Timeout, when nonzero, bounds each call: it is sent as the
	// request deadline and bounds the local wait for the response.
	Timeout time.Duration

	window uint32 // server's per-connection pipeline depth

	conn net.Conn
	br   *bufio.Reader // owned by readLoop

	// mu guards what is queued and what is outstanding. fail takes it
	// too, so a call is either registered before the failure, and
	// failed by it, or sees the sticky error.
	mu      sync.Mutex
	queued  []byte // frames for the writer's next write(2)
	nqueued int    // frames in queued
	nextID  uint32
	pending map[uint32]*Call
	err     error         // sticky failure; pending is nil once set
	wake    chan struct{} // queued became non-empty; closed by fail
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
	c := newClient(conn)
	// HELLO is an ordinary call; the connection deadline fails it, and
	// with it the read loop, if no answer comes.
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	rs, err := c.callOK(&Request{Op: OpHello, MaxVersion: ProtoVersion})
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

// newClient starts the reader and the writer of a connection.
func newClient(conn net.Conn) *Client {
	c := &Client{conn: conn, br: bufio.NewReader(conn), pending: make(map[uint32]*Call), wake: make(chan struct{}, 1)}
	go c.readLoop()
	go c.writeLoop()
	return c
}

// Window reports the server's per-connection pipeline depth.
func (c *Client) Window() uint32 { return c.window }

// Close closes the connection; in-flight and later calls fail with
// ErrClientClosed.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	return nil
}

// Go issues req asynchronously and returns its Call; the call is
// delivered on done (a fresh one-buffered channel when nil) once the
// response arrives or the transport fails.
func (c *Client) Go(req *Request, done chan *Call) *Call {
	if done == nil {
		done = make(chan *Call, 1)
	}
	call := &Call{Req: req, Done: done}
	if c.Timeout > 0 {
		req.DeadlineMS = uint32(c.Timeout / time.Millisecond)
	}
	c.mu.Lock()
	err := c.err
	if err == nil {
		c.nextID++
		call.id = c.nextID
		empty := c.nqueued == 0
		if c.queued, err = appendRequestFrame(c.queued, call.id, req); err == nil {
			c.pending[call.id] = call
			c.nqueued++
			if empty {
				c.wake <- struct{}{} // cannot block: one wake per emptied queue
			}
		}
	}
	c.mu.Unlock()
	if err != nil {
		call.Err = err
		call.finish()
	}
	return call
}

// writeLoop sends everything queued in one write(2) until fail closes
// wake. Holding one frame it first yields once, so that on one P the
// callers whose answers just came queue theirs behind it (DESIGN.md §10).
func (c *Client) writeLoop() {
	var out []byte
	for range c.wake {
		c.mu.Lock()
		if c.nqueued == 1 {
			c.mu.Unlock()
			runtime.Gosched()
			c.mu.Lock()
		}
		out, c.queued = c.queued, out[:0]
		c.nqueued = 0
		timeout := c.Timeout
		c.mu.Unlock()
		if timeout > 0 {
			c.conn.SetWriteDeadline(time.Now().Add(timeout))
		}
		if _, err := c.conn.Write(out); err != nil {
			c.fail(err)
		}
	}
}

// readLoop is the response dispatcher: it matches response
// IDs to pending calls for as long as the connection lives, then fails
// whatever is left.
func (c *Client) readLoop() {
	var buf []byte
	var err error
	for {
		if buf, err = ReadFrame(c.br, buf); err != nil {
			break
		}
		id, rs, derr := DecodeResponse(buf)
		if derr != nil {
			err = derr
			break
		}
		c.mu.Lock()
		call := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		// An unknown ID answers an abandoned (timed-out) call: drop it.
		if call != nil {
			call.Resp = rs
			call.finish()
		}
	}
	c.fail(err)
}

// fail makes err the sticky failure, closes the connection, stops the
// writer and fails every pending call. Only the first failure counts.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	pending := c.pending
	c.pending = nil
	close(c.wake)
	c.mu.Unlock()
	c.conn.Close()
	for _, call := range pending {
		call.Err = err
		call.finish()
	}
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
		c.mu.Lock()
		delete(c.pending, call.id)
		c.mu.Unlock()
		return nil, &DeadlineError{}
	}
}

// callOK is call with a non-OK status as its error; StatusNotFound
// is left to the caller.
func (c *Client) callOK(req *Request) (*Response, error) {
	rs, err := c.call(req)
	if err == nil {
		err = statusErr(rs)
	}
	return rs, err
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
	rs, err := c.callOK(&Request{Op: OpGet, Keys: []core.Key{k}})
	if err != nil {
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
	rs, err := c.callOK(&Request{Op: OpMGet, Keys: keys})
	if err != nil {
		return nil, err
	}
	if len(rs.Lookups) != len(keys) {
		return nil, fmt.Errorf("serve: MGET returned %d lookups for %d keys", len(rs.Lookups), len(keys))
	}
	return rs.Lookups, nil
}

// Scan returns up to limit pairs with keys in [start, end].
func (c *Client) Scan(start, end core.Key, limit int) ([]core.Pair, error) {
	rs, err := c.callOK(&Request{Op: OpScan, Start: start, End: end, Limit: uint32(limit)})
	if err != nil {
		return nil, err
	}
	return rs.Pairs, nil
}

// Put upserts the pairs (one atomic unit per shard).
func (c *Client) Put(pairs ...core.Pair) error {
	_, err := c.callOK(&Request{Op: OpPut, Pairs: pairs})
	return err
}

// Del deletes the keys.
func (c *Client) Del(keys ...core.Key) error {
	_, err := c.callOK(&Request{Op: OpDel, Keys: keys})
	return err
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
	rs, err := c.callOK(&Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	return rs.Stats, nil
}

// ScanOpen registers a streaming-scan cursor over [start, end] on the
// server and returns its ID (PROTOCOL.md §10). The cursor pins a
// snapshot of every shard until ScanClose, exhaustion, connection
// close, or the server's idle timeout.
func (c *Client) ScanOpen(start, end core.Key) (uint64, error) {
	rs, err := c.callOK(&Request{Op: OpScanOpen, Start: start, End: end})
	if err != nil {
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
