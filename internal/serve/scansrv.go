package serve

// Server-side streaming-scan cursor management (PROTOCOL.md §10).
// Cursors are connection-scoped: a cursor ID is meaningful only on
// the connection that opened it, so one client cannot drive (or
// close) another's scan. Every connection's cursor set registers with
// the server so an idle-cursor reaper can reclaim the snapshots of
// scans whose client walked away without SCANCLOSE.

import (
	"sync"
	"sync/atomic"
	"time"

	"pbtree/internal/core"
	"pbtree/internal/obs"
)

// maxConnCursors bounds the streaming-scan cursors one connection may
// hold open; SCANOPEN past the cap is answered StatusRetry. The bound keeps a single misbehaving client from
// pinning an unbounded number of snapshots.
const maxConnCursors = 64

// serverCursor is one registered streaming scan.
type serverCursor struct {
	sc       *StoreCursor
	lastUsed atomic.Int64 // obs.Nanotime of the last SCANOPEN/SCANNEXT
}

// connCursors is one connection's cursor table. IDs are per
// connection, monotonically increasing from 1 (0 is never a valid
// cursor on the wire).
type connCursors struct {
	mu     sync.Mutex
	m      map[uint64]*serverCursor
	nextID uint64
}

// registerCursors creates a connection's cursor set and registers it
// with the reaper.
func (s *Server) registerCursors() *connCursors {
	cs := &connCursors{m: make(map[uint64]*serverCursor)}
	s.curMu.Lock()
	s.curSets[cs] = struct{}{}
	s.curMu.Unlock()
	return cs
}

// releaseCursors unregisters a closing connection's cursor set and
// releases every snapshot it still pins.
func (s *Server) releaseCursors(cs *connCursors) {
	s.curMu.Lock()
	delete(s.curSets, cs)
	s.curMu.Unlock()
	cs.mu.Lock()
	cursors := make([]*serverCursor, 0, len(cs.m))
	for id, c := range cs.m {
		cursors = append(cursors, c)
		delete(cs.m, id)
	}
	cs.mu.Unlock()
	for _, c := range cursors {
		c.sc.Close()
		s.cfg.Metrics.Add(obs.CursorsOpen, -1)
	}
}

// open registers a new cursor and returns its ID, or 0 when the
// connection is at its cursor cap.
func (cs *connCursors) open(c *serverCursor) uint64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if len(cs.m) >= maxConnCursors {
		return 0
	}
	cs.nextID++
	cs.m[cs.nextID] = c
	return cs.nextID
}

// get looks a cursor up without removing it.
func (cs *connCursors) get(id uint64) *serverCursor {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.m[id]
}

// take removes and returns a cursor, or nil if the ID is unknown.
func (cs *connCursors) take(id uint64) *serverCursor {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	c := cs.m[id]
	delete(cs.m, id)
	return c
}

// reapCursors is the idle-cursor reaper: it periodically walks every
// connection's cursor set and closes cursors that have not been
// touched for CursorTimeout, releasing the snapshots they pin. A
// reaped ID answers later SCANNEXT/SCANCLOSE with StatusNotFound.
func (s *Server) reapCursors() {
	defer s.wg.Done()
	period := s.cfg.CursorTimeout / 4
	period = max(period, 10*time.Millisecond)
	period = min(period, time.Second)
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.reaperStop:
			return
		case <-t.C:
		}
		cutoff := obs.Nanotime() - s.cfg.CursorTimeout.Nanoseconds()
		s.curMu.Lock()
		sets := make([]*connCursors, 0, len(s.curSets))
		for cs := range s.curSets {
			sets = append(sets, cs)
		}
		s.curMu.Unlock()
		for _, cs := range sets {
			cs.mu.Lock()
			var idle []*serverCursor
			for id, c := range cs.m {
				if c.lastUsed.Load() < cutoff {
					idle = append(idle, c)
					delete(cs.m, id)
				}
			}
			cs.mu.Unlock()
			for _, c := range idle {
				c.sc.Close()
				s.cfg.Metrics.Add(obs.CursorsOpen, -1)
				s.cfg.Metrics.Add(obs.CursorTimeouts, 1)
			}
		}
	}
}

// CursorStats is the STATS view of streaming-scan cursor occupancy.
type CursorStats struct {
	Open     int64  `json:"open"`     // cursors currently open
	Opened   uint64 `json:"opened"`   // cursors ever opened
	Timeouts uint64 `json:"timeouts"` // cursors reclaimed by the idle reaper
	MaxConn  int    `json:"max_conn"` // per-connection cursor cap
	IdleMS   int64  `json:"idle_ms"`  // reaper timeout
}

// cursorStats snapshots the cursor counters for STATS.
func (s *Server) cursorStats() CursorStats {
	return CursorStats{
		Open:     s.cfg.Metrics.Load(obs.CursorsOpen),
		Opened:   uint64(s.cfg.Metrics.Load(obs.CursorsOpened)),
		Timeouts: uint64(s.cfg.Metrics.Load(obs.CursorTimeouts)),
		MaxConn:  maxConnCursors,
		IdleMS:   s.cfg.CursorTimeout.Milliseconds(),
	}
}

// executeScan runs one streaming-scan op against the
// connection's cursor set.
func (s *Server) executeScan(req *Request, cs *connCursors) *Response {
	if cs == nil {
		return &Response{Status: StatusErr, Err: "serve: streaming scan without a connection"}
	}
	switch req.Op {
	case OpScanOpen:
		sc, err := s.st.OpenCursor(req.Start, req.End)
		if err != nil {
			return &Response{Status: StatusErr, Err: err.Error()}
		}
		c := &serverCursor{sc: sc}
		c.lastUsed.Store(obs.Nanotime())
		id := cs.open(c)
		if id == 0 {
			sc.Close()
			return s.retry()
		}
		s.cfg.Metrics.Add(obs.CursorsOpen, 1)
		s.cfg.Metrics.Add(obs.CursorsOpened, 1)
		return &Response{Status: StatusOK, Cursor: id}
	case OpScanNext:
		c := cs.get(req.Cursor)
		if c == nil {
			return &Response{Status: StatusNotFound}
		}
		c.lastUsed.Store(obs.Nanotime())
		rows, done := c.sc.Next(int(req.Max))
		if rows == nil {
			rows = []core.Pair{}
		}
		if done {
			// Exhausted: the cursor closes server-side so a well-behaved
			// client never needs a SCANCLOSE round trip.
			if cs.take(req.Cursor) != nil {
				c.sc.Close()
				s.cfg.Metrics.Add(obs.CursorsOpen, -1)
			}
		}
		return &Response{Status: StatusOK, ScanChunk: true, ScanDone: done, Pairs: rows}
	case OpScanClose:
		c := cs.take(req.Cursor)
		if c == nil {
			return &Response{Status: StatusNotFound}
		}
		c.sc.Close()
		s.cfg.Metrics.Add(obs.CursorsOpen, -1)
		return &Response{Status: StatusOK}
	}
	return &Response{Status: StatusErr, Err: "serve: not a streaming-scan op"}
}
