package serve

// The wire protocol: length-prefixed binary frames over TCP. Every
// frame is a uint32 little-endian payload length followed by the
// payload; requests and responses use the same framing. The encoding
// is explicit (no reflection) so the codec is allocation-light and the
// decoder can enforce bounds field by field — a decoder that trusts an
// attacker-chosen count is how servers die (see the fuzz harnesses in
// wire_test.go).
//
// PROTOCOL.md is the normative byte-by-byte specification, with
// example frames that protocol_test.go checks against this codec byte
// for byte. The short form:
//
// Request payload:
//
//	id        uint32  chosen by the client, echoed by the server
//	op        uint8   (Get=1 MGet=2 Scan=3 Put=4 Del=5 Stats=6 Hello=7
//	                   Replicate=8 ScanOpen=9 ScanNext=10 ScanClose=11)
//	deadline  uint32  per-request deadline in ms, 0 = none
//	...               op-specific fields, below
//
// Response payload:
//
//	id        uint32  the request being answered
//	status    uint8   (OK=0 NotFound=1 Retry=2 Err=3 Deadline=4 Fenced=5)
//	...               status/op-specific fields, below
//
// IDs must be unique among the requests outstanding on one connection;
// the server may answer them in any order, which is what makes
// connections full-duplex pipelines.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"pbtree/internal/core"
)

// Op identifies a request operation.
type Op uint8

// The wire operations.
const (
	OpGet   Op = 1
	OpMGet  Op = 2
	OpScan  Op = 3
	OpPut   Op = 4
	OpDel   Op = 5
	OpStats Op = 6
	OpHello Op = 7 // version check; Dial sends it first to learn the server's window

	// OpReplicate is the replication control class: a follower pulls
	// WAL records (and, when too far behind, checkpoint chunks) from
	// its primary, any node answers role/epoch/LSN status probes, and
	// a promoted follower fences its deposed primary. The sub-command
	// is ReplReq.Kind (PROTOCOL.md §9).
	OpReplicate Op = 8

	// The streaming-scan ops (PROTOCOL.md §10): SCANOPEN registers a
	// cursor over a pinned snapshot, SCANNEXT pulls one bounded chunk
	// of rows (admitting only that chunk's row tokens), SCANCLOSE
	// releases the cursor. Together they replace a monolithic SCAN for
	// OLAP-sized ranges whose full row count would otherwise hold the
	// scan token budget for the duration of the request.
	OpScanOpen  Op = 9
	OpScanNext  Op = 10
	OpScanClose Op = 11
)

// ProtoVersion is the one protocol version: every frame carries a
// request ID. A HELLO from a peer that speaks less is refused
// (PROTOCOL.md §3).
const ProtoVersion = 2

// String names an op for metrics and errors.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpMGet:
		return "mget"
	case OpScan:
		return "scan"
	case OpPut:
		return "put"
	case OpDel:
		return "del"
	case OpStats:
		return "stats"
	case OpHello:
		return "hello"
	case OpReplicate:
		return "replicate"
	case OpScanOpen:
		return "scanopen"
	case OpScanNext:
		return "scannext"
	case OpScanClose:
		return "scanclose"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ReplKind selects the REPLICATE sub-command (PROTOCOL.md §9).
type ReplKind uint8

// The REPLICATE sub-commands. Requests and responses use the same
// kind values; a response always mirrors its request's kind, except
// that a FETCH against a retired WAL position is answered ReplSnap
// (the redirect to checkpoint shipping).
const (
	// ReplStatus asks any node for its role, epoch and per-shard
	// applied LSNs — the probe behind operators' and failover
	// tooling's checks.
	ReplStatus ReplKind = 1

	// ReplFetch asks a primary for the WAL records of one shard after
	// a follower-supplied cursor; the follower's durably applied LSN
	// rides along as the acknowledgement for lag tracking and
	// synchronous replication.
	ReplFetch ReplKind = 2

	// ReplSnapFetch streams one chunk of a shard checkpoint — the
	// catch-up path when the follower's cursor predates the primary's
	// retained WAL.
	ReplSnapFetch ReplKind = 3

	// ReplFence tells a node that a higher epoch exists: a deposed
	// primary stops acknowledging writes the moment it sees one.
	ReplFence ReplKind = 4

	// ReplSnap is the response kind carrying checkpoint metadata or a
	// chunk (it answers ReplSnapFetch, and ReplFetch when the cursor
	// is retired).
	ReplSnap ReplKind = 3
)

// String names a replication sub-command for errors and logs.
func (k ReplKind) String() string {
	switch k {
	case ReplStatus:
		return "status"
	case ReplFetch:
		return "fetch"
	case ReplSnapFetch:
		return "snapfetch"
	case ReplFence:
		return "fence"
	}
	return fmt.Sprintf("replkind(%d)", uint8(k))
}

// ReplRole is a node's replication role in a STATUS response.
type ReplRole uint8

// The replication roles.
const (
	RolePrimary ReplRole = 1 // accepts writes, serves FETCH
	RoleReplica ReplRole = 2 // applies shipped records, serves reads
	RoleFenced  ReplRole = 3 // deposed primary: every append is rejected
)

// String names a role for logs and the admin plane.
func (r ReplRole) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleReplica:
		return "replica"
	case RoleFenced:
		return "fenced"
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

// Status is a response status.
type Status uint8

// The wire statuses.
const (
	StatusOK       Status = 0
	StatusNotFound Status = 1
	StatusRetry    Status = 2 // refused with no effect; retry after the hint
	StatusErr      Status = 3
	StatusDeadline Status = 4 // request deadline expired before execution

	// StatusFenced rejects a replication request whose epoch is not
	// the responder's: the payload carries the highest epoch the
	// responder has seen, so a deposed peer learns it is deposed from
	// the rejection itself (PROTOCOL.md §9).
	StatusFenced Status = 5
)

// Wire-format bounds. The codec rejects frames that exceed them so a
// hostile peer cannot make either side allocate unbounded memory.
const (
	MaxFrame      = 16 << 20 // bytes of payload per frame
	MaxMGetKeys   = 1 << 16  // keys per MGET / DEL, pairs per PUT
	MaxScanRows   = 1 << 16  // row limit per SCAN: one chunk; stream more
	MaxScanChunk  = 1 << 16  // rows per SCANNEXT chunk
	MaxReplBytes  = 1 << 20  // WAL-record / checkpoint-chunk bytes per REPLICATE frame
	MaxReplShards = 1 << 16  // per-shard LSNs per STATUS response
	maxErrLen     = 1 << 16  // bytes of error text per response
)

// ReplReq carries the REPLICATE request fields; which are meaningful
// depends on Kind (PROTOCOL.md §9).
type ReplReq struct {
	Kind    ReplKind // sub-command; selects the fields below
	Epoch   uint64   // sender's replication epoch (0 on a STATUS probe = unknown)
	Shard   uint32   // target shard (Fetch, SnapFetch)
	After   uint64   // Fetch: stream records with LSN > After
	Applied uint64   // Fetch: follower's durably applied LSN (the ack)
	SnapLSN uint64   // SnapFetch: checkpoint being fetched (0 = whatever is current)
	Offset  uint64   // SnapFetch: byte offset into the checkpoint stream
	Max     uint32   // Fetch, SnapFetch: response payload byte budget (0 = server default)
}

// ReplResp carries the REPLICATE response fields of a StatusOK answer;
// which are meaningful depends on Kind (PROTOCOL.md §9).
type ReplResp struct {
	Kind       ReplKind // mirrors the request (ReplSnap answers a retired Fetch too)
	Epoch      uint64   // responder's replication epoch
	Role       ReplRole // Status: the responder's role
	ShardLSNs  []uint64 // Status: durably applied LSN per shard, in shard order
	PrimaryLSN uint64   // Fetch: the primary's own last LSN for the shard (lag = PrimaryLSN - cursor)
	Count      uint32   // Fetch: WAL records in Records
	Records    []byte   // Fetch: raw WAL-framed records, LSNs contiguous from After+1
	SnapLSN    uint64   // Snap: the checkpoint's coverage LSN
	SnapSize   uint64   // Snap: total checkpoint stream size in bytes
	Offset     uint64   // Snap: byte offset of Chunk
	Done       bool     // Snap: Chunk is the final one
	Chunk      []byte   // Snap: checkpoint stream bytes at Offset (empty on a Fetch redirect)
}

// Request is one decoded client request.
type Request struct {
	Op         Op          // which operation; selects the fields below
	DeadlineMS uint32      // 0 = no deadline
	Keys       []core.Key  // Get (1 key), MGet, Del
	Pairs      []core.Pair // Put
	Start, End core.Key    // Scan, ScanOpen
	Limit      uint32      // Scan
	Cursor     uint64      // ScanNext, ScanClose: cursor being driven (never 0)
	Max        uint32      // ScanNext: row budget for this chunk, in [1, MaxScanChunk]
	MaxVersion uint8       // Hello: highest protocol version the client speaks (>= ProtoVersion)
	Repl       *ReplReq    // Replicate
}

// Response is one decoded server response.
type Response struct {
	Status       Status      // outcome; selects the fields below
	RetryAfterMS uint32      // StatusRetry
	Err          string      // StatusErr
	Lookups      []Lookup    // Get, MGet (aligned with request keys)
	Pairs        []core.Pair // Scan
	Stats        []byte      // Stats (JSON)
	Cursor       uint64      // ScanOpen: the cursor the server registered (never 0)
	ScanChunk    bool        // ScanNext: Pairs is one streaming chunk ('N' tag, not 'P')
	ScanDone     bool        // ScanNext: the scan is exhausted; the cursor is already closed
	Version      uint8       // Hello: the protocol version the server speaks
	Window       uint32      // Hello: per-connection pipeline depth the server executes
	Repl         *ReplResp   // Replicate (StatusOK)
	FencedEpoch  uint64      // StatusFenced: highest epoch the responder has seen
}

// appendU32 appends a little-endian uint32.
func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// appendU64 appends a little-endian uint64.
func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// AppendRequest appends the encoded payload of r (without framing)
// under request ID id.
func AppendRequest(dst []byte, id uint32, r *Request) ([]byte, error) {
	dst = appendU32(dst, id)
	dst = append(dst, byte(r.Op))
	dst = appendU32(dst, r.DeadlineMS)
	switch r.Op {
	case OpGet:
		if len(r.Keys) != 1 {
			return nil, fmt.Errorf("serve: GET wants exactly one key, got %d", len(r.Keys))
		}
		dst = appendU32(dst, uint32(r.Keys[0]))
	case OpMGet, OpDel:
		if len(r.Keys) == 0 || len(r.Keys) > MaxMGetKeys {
			return nil, fmt.Errorf("serve: %s with %d keys outside [1, %d]", r.Op, len(r.Keys), MaxMGetKeys)
		}
		dst = appendU32(dst, uint32(len(r.Keys)))
		for _, k := range r.Keys {
			dst = appendU32(dst, uint32(k))
		}
	case OpScan:
		if r.Limit == 0 || r.Limit > MaxScanRows {
			return nil, fmt.Errorf("serve: SCAN limit %d outside [1, %d]", r.Limit, MaxScanRows)
		}
		dst = appendU32(dst, uint32(r.Start))
		dst = appendU32(dst, uint32(r.End))
		dst = appendU32(dst, r.Limit)
	case OpPut:
		if len(r.Pairs) == 0 || len(r.Pairs) > MaxMGetKeys {
			return nil, fmt.Errorf("serve: PUT with %d pairs outside [1, %d]", len(r.Pairs), MaxMGetKeys)
		}
		dst = appendU32(dst, uint32(len(r.Pairs)))
		for _, p := range r.Pairs {
			dst = appendU32(dst, uint32(p.Key))
			dst = appendU32(dst, uint32(p.TID))
		}
	case OpScanOpen:
		dst = appendU32(dst, uint32(r.Start))
		dst = appendU32(dst, uint32(r.End))
	case OpScanNext:
		if r.Cursor == 0 {
			return nil, fmt.Errorf("serve: SCANNEXT with cursor 0")
		}
		if r.Max == 0 || r.Max > MaxScanChunk {
			return nil, fmt.Errorf("serve: SCANNEXT chunk %d outside [1, %d]", r.Max, MaxScanChunk)
		}
		dst = appendU64(dst, r.Cursor)
		dst = appendU32(dst, r.Max)
	case OpScanClose:
		if r.Cursor == 0 {
			return nil, fmt.Errorf("serve: SCANCLOSE with cursor 0")
		}
		dst = appendU64(dst, r.Cursor)
	case OpStats:
	case OpHello:
		if r.MaxVersion < ProtoVersion {
			return nil, fmt.Errorf("serve: HELLO with max version %d < %d", r.MaxVersion, ProtoVersion)
		}
		dst = append(dst, r.MaxVersion)
	case OpReplicate:
		return appendReplReq(dst, r.Repl)
	default:
		return nil, fmt.Errorf("serve: unknown op %d", r.Op)
	}
	return dst, nil
}

// appendReplReq appends the REPLICATE request body (after op +
// deadline): kind, epoch, shard, then the kind-specific fields.
func appendReplReq(dst []byte, rq *ReplReq) ([]byte, error) {
	if rq == nil {
		return nil, fmt.Errorf("serve: REPLICATE request without a body")
	}
	dst = append(dst, byte(rq.Kind))
	dst = appendU64(dst, rq.Epoch)
	dst = appendU32(dst, rq.Shard)
	switch rq.Kind {
	case ReplStatus, ReplFence:
	case ReplFetch:
		if rq.Max > MaxReplBytes {
			return nil, fmt.Errorf("serve: FETCH byte budget %d exceeds %d", rq.Max, MaxReplBytes)
		}
		dst = appendU64(dst, rq.After)
		dst = appendU64(dst, rq.Applied)
		dst = appendU32(dst, rq.Max)
	case ReplSnapFetch:
		if rq.Max > MaxReplBytes {
			return nil, fmt.Errorf("serve: SNAPFETCH byte budget %d exceeds %d", rq.Max, MaxReplBytes)
		}
		dst = appendU64(dst, rq.SnapLSN)
		dst = appendU64(dst, rq.Offset)
		dst = appendU32(dst, rq.Max)
	default:
		return nil, fmt.Errorf("serve: unknown REPLICATE kind %d", rq.Kind)
	}
	return dst, nil
}

// reader walks an encoded payload with bounds checks.
type reader struct {
	b []byte
}

func (rd *reader) u8() (uint8, error) {
	if len(rd.b) < 1 {
		return 0, io.ErrUnexpectedEOF
	}
	v := rd.b[0]
	rd.b = rd.b[1:]
	return v, nil
}

func (rd *reader) u32() (uint32, error) {
	if len(rd.b) < 4 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint32(rd.b)
	rd.b = rd.b[4:]
	return v, nil
}

func (rd *reader) u64() (uint64, error) {
	if len(rd.b) < 8 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint64(rd.b)
	rd.b = rd.b[8:]
	return v, nil
}

// bytes reads a u32 length-prefixed byte string bounded by bound,
// copying it out of the frame buffer.
func (rd *reader) bytes(bound uint32) ([]byte, error) {
	n, err := rd.u32()
	if err != nil {
		return nil, err
	}
	if n > bound {
		return nil, fmt.Errorf("serve: byte string of %d exceeds %d", n, bound)
	}
	if int(n) > len(rd.b) {
		return nil, io.ErrUnexpectedEOF
	}
	out := append([]byte(nil), rd.b[:n]...)
	rd.b = rd.b[n:]
	return out, nil
}

// count reads a count field and checks it against a bound AND against
// the bytes actually remaining (per-element size), so a lying count in
// a short frame can never size an allocation. Requests require at
// least one element; responses may carry empty lists (count0).
func (rd *reader) count(bound uint32, elemBytes int) (int, error) {
	n, err := rd.count0(bound, elemBytes)
	if err == nil && n == 0 {
		return 0, fmt.Errorf("serve: count 0 outside [1, %d]", bound)
	}
	return n, err
}

func (rd *reader) count0(bound uint32, elemBytes int) (int, error) {
	n, err := rd.u32()
	if err != nil {
		return 0, err
	}
	if n > bound {
		return 0, fmt.Errorf("serve: count %d exceeds %d", n, bound)
	}
	if int(n)*elemBytes > len(rd.b) {
		return 0, io.ErrUnexpectedEOF
	}
	return int(n), nil
}

func (rd *reader) done() error {
	if len(rd.b) != 0 {
		return fmt.Errorf("serve: %d trailing bytes in frame", len(rd.b))
	}
	return nil
}

// DecodeRequest parses a request payload produced by AppendRequest. A
// payload too short to carry the ID cannot be answered at all; one with
// a malformed body returns the ID alongside the error so the fault can
// be reported in-band (PROTOCOL.md §5).
func DecodeRequest(payload []byte) (uint32, *Request, error) {
	rd := &reader{b: payload}
	id, err := rd.u32()
	if err != nil {
		return 0, nil, err
	}
	r, err := decodeRequestBody(rd)
	return id, r, err
}

// decodeRequestBody parses what follows the request ID.
func decodeRequestBody(rd *reader) (*Request, error) {
	op, err := rd.u8()
	if err != nil {
		return nil, err
	}
	r := &Request{Op: Op(op)}
	if r.DeadlineMS, err = rd.u32(); err != nil {
		return nil, err
	}
	switch r.Op {
	case OpGet:
		k, err := rd.u32()
		if err != nil {
			return nil, err
		}
		r.Keys = []core.Key{core.Key(k)}
	case OpMGet, OpDel:
		n, err := rd.count(MaxMGetKeys, 4)
		if err != nil {
			return nil, err
		}
		r.Keys = make([]core.Key, n)
		for i := range r.Keys {
			k, _ := rd.u32()
			r.Keys[i] = core.Key(k)
		}
	case OpScan:
		var s, e uint32
		if s, err = rd.u32(); err != nil {
			return nil, err
		}
		if e, err = rd.u32(); err != nil {
			return nil, err
		}
		if r.Limit, err = rd.u32(); err != nil {
			return nil, err
		}
		if r.Limit == 0 || r.Limit > MaxScanRows {
			return nil, fmt.Errorf("serve: SCAN limit %d outside [1, %d]", r.Limit, MaxScanRows)
		}
		r.Start, r.End = core.Key(s), core.Key(e)
	case OpPut:
		n, err := rd.count(MaxMGetKeys, 8)
		if err != nil {
			return nil, err
		}
		r.Pairs = make([]core.Pair, n)
		for i := range r.Pairs {
			k, _ := rd.u32()
			t, _ := rd.u32()
			r.Pairs[i] = core.Pair{Key: core.Key(k), TID: core.TID(t)}
		}
	case OpScanOpen:
		var s, e uint32
		if s, err = rd.u32(); err != nil {
			return nil, err
		}
		if e, err = rd.u32(); err != nil {
			return nil, err
		}
		r.Start, r.End = core.Key(s), core.Key(e)
	case OpScanNext:
		if r.Cursor, err = rd.u64(); err != nil {
			return nil, err
		}
		if r.Cursor == 0 {
			return nil, fmt.Errorf("serve: SCANNEXT with cursor 0")
		}
		if r.Max, err = rd.u32(); err != nil {
			return nil, err
		}
		if r.Max == 0 || r.Max > MaxScanChunk {
			return nil, fmt.Errorf("serve: SCANNEXT chunk %d outside [1, %d]", r.Max, MaxScanChunk)
		}
	case OpScanClose:
		if r.Cursor, err = rd.u64(); err != nil {
			return nil, err
		}
		if r.Cursor == 0 {
			return nil, fmt.Errorf("serve: SCANCLOSE with cursor 0")
		}
	case OpStats:
	case OpHello:
		if r.MaxVersion, err = rd.u8(); err != nil {
			return nil, err
		}
		if r.MaxVersion < ProtoVersion {
			return nil, fmt.Errorf("serve: HELLO with max version %d < %d", r.MaxVersion, ProtoVersion)
		}
	case OpReplicate:
		if r.Repl, err = decodeReplReq(rd); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("serve: unknown op %d", op)
	}
	if err := rd.done(); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeReplReq parses the REPLICATE request body.
func decodeReplReq(rd *reader) (*ReplReq, error) {
	k, err := rd.u8()
	if err != nil {
		return nil, err
	}
	rq := &ReplReq{Kind: ReplKind(k)}
	if rq.Epoch, err = rd.u64(); err != nil {
		return nil, err
	}
	if rq.Shard, err = rd.u32(); err != nil {
		return nil, err
	}
	switch rq.Kind {
	case ReplStatus, ReplFence:
	case ReplFetch:
		if rq.After, err = rd.u64(); err != nil {
			return nil, err
		}
		if rq.Applied, err = rd.u64(); err != nil {
			return nil, err
		}
		if rq.Max, err = rd.u32(); err != nil {
			return nil, err
		}
		if rq.Max > MaxReplBytes {
			return nil, fmt.Errorf("serve: FETCH byte budget %d exceeds %d", rq.Max, MaxReplBytes)
		}
	case ReplSnapFetch:
		if rq.SnapLSN, err = rd.u64(); err != nil {
			return nil, err
		}
		if rq.Offset, err = rd.u64(); err != nil {
			return nil, err
		}
		if rq.Max, err = rd.u32(); err != nil {
			return nil, err
		}
		if rq.Max > MaxReplBytes {
			return nil, fmt.Errorf("serve: SNAPFETCH byte budget %d exceeds %d", rq.Max, MaxReplBytes)
		}
	default:
		return nil, fmt.Errorf("serve: unknown REPLICATE kind %d", k)
	}
	return rq, nil
}

// AppendResponse appends the encoded payload of rs (without framing),
// answering request ID id.
func AppendResponse(dst []byte, id uint32, rs *Response) ([]byte, error) {
	dst = appendU32(dst, id)
	dst = append(dst, byte(rs.Status))
	switch rs.Status {
	case StatusRetry:
		return appendU32(dst, rs.RetryAfterMS), nil
	case StatusErr:
		msg := rs.Err
		if len(msg) > maxErrLen {
			msg = msg[:maxErrLen]
		}
		dst = appendU32(dst, uint32(len(msg)))
		return append(dst, msg...), nil
	case StatusNotFound, StatusDeadline:
		return dst, nil
	case StatusFenced:
		return appendU64(dst, rs.FencedEpoch), nil
	case StatusOK:
	default:
		return nil, fmt.Errorf("serve: unknown status %d", rs.Status)
	}
	// StatusOK: exactly one of the payload kinds, tagged.
	switch {
	case rs.Repl != nil:
		return appendReplResp(dst, rs.Repl)
	case rs.Version != 0:
		dst = append(dst, 'V')
		dst = append(dst, rs.Version)
		dst = appendU32(dst, rs.Window)
	case rs.ScanChunk:
		if len(rs.Pairs) > MaxScanChunk {
			return nil, fmt.Errorf("serve: %d chunk rows exceed %d", len(rs.Pairs), MaxScanChunk)
		}
		dst = append(dst, 'N')
		if rs.ScanDone {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = appendU32(dst, uint32(len(rs.Pairs)))
		for _, p := range rs.Pairs {
			dst = appendU32(dst, uint32(p.Key))
			dst = appendU32(dst, uint32(p.TID))
		}
	case rs.Cursor != 0:
		dst = append(dst, 'C')
		dst = appendU64(dst, rs.Cursor)
	case rs.Lookups != nil:
		if len(rs.Lookups) > MaxMGetKeys {
			return nil, fmt.Errorf("serve: %d lookups exceed %d", len(rs.Lookups), MaxMGetKeys)
		}
		dst = append(dst, 'L')
		dst = appendU32(dst, uint32(len(rs.Lookups)))
		for _, l := range rs.Lookups {
			dst = appendU32(dst, uint32(l.TID))
			if l.Found {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	case rs.Pairs != nil:
		if len(rs.Pairs) > MaxScanRows {
			return nil, fmt.Errorf("serve: %d pairs exceed %d", len(rs.Pairs), MaxScanRows)
		}
		dst = append(dst, 'P')
		dst = appendU32(dst, uint32(len(rs.Pairs)))
		for _, p := range rs.Pairs {
			dst = appendU32(dst, uint32(p.Key))
			dst = appendU32(dst, uint32(p.TID))
		}
	case rs.Stats != nil:
		if len(rs.Stats) > MaxFrame/2 {
			return nil, fmt.Errorf("serve: stats blob of %d bytes exceeds %d", len(rs.Stats), MaxFrame/2)
		}
		dst = append(dst, 'S')
		dst = appendU32(dst, uint32(len(rs.Stats)))
		dst = append(dst, rs.Stats...)
	default:
		dst = append(dst, 'E') // empty OK (PUT/DEL ack)
	}
	return dst, nil
}

// appendReplResp appends the 'R'-tagged REPLICATE response payload.
func appendReplResp(dst []byte, rp *ReplResp) ([]byte, error) {
	dst = append(dst, 'R')
	dst = append(dst, byte(rp.Kind))
	dst = appendU64(dst, rp.Epoch)
	switch rp.Kind {
	case ReplStatus:
		if len(rp.ShardLSNs) > MaxReplShards {
			return nil, fmt.Errorf("serve: %d shard LSNs exceed %d", len(rp.ShardLSNs), MaxReplShards)
		}
		dst = append(dst, byte(rp.Role))
		dst = appendU32(dst, uint32(len(rp.ShardLSNs)))
		for _, lsn := range rp.ShardLSNs {
			dst = appendU64(dst, lsn)
		}
	case ReplFetch:
		if len(rp.Records) > MaxReplBytes {
			return nil, fmt.Errorf("serve: %d record bytes exceed %d", len(rp.Records), MaxReplBytes)
		}
		dst = appendU64(dst, rp.PrimaryLSN)
		dst = appendU32(dst, rp.Count)
		dst = appendU32(dst, uint32(len(rp.Records)))
		dst = append(dst, rp.Records...)
	case ReplSnap:
		if len(rp.Chunk) > MaxReplBytes {
			return nil, fmt.Errorf("serve: %d chunk bytes exceed %d", len(rp.Chunk), MaxReplBytes)
		}
		dst = appendU64(dst, rp.SnapLSN)
		dst = appendU64(dst, rp.SnapSize)
		dst = appendU64(dst, rp.Offset)
		if rp.Done {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = appendU32(dst, uint32(len(rp.Chunk)))
		dst = append(dst, rp.Chunk...)
	case ReplFence:
	default:
		return nil, fmt.Errorf("serve: unknown REPLICATE kind %d", rp.Kind)
	}
	return dst, nil
}

// DecodeResponse parses a response payload produced by AppendResponse
// into the ID it answers and the response.
func DecodeResponse(payload []byte) (uint32, *Response, error) {
	rd := &reader{b: payload}
	id, err := rd.u32()
	if err != nil {
		return 0, nil, err
	}
	rs, err := decodeResponseBody(rd)
	return id, rs, err
}

// decodeResponseBody parses what follows the request ID.
func decodeResponseBody(rd *reader) (*Response, error) {
	st, err := rd.u8()
	if err != nil {
		return nil, err
	}
	rs := &Response{Status: Status(st)}
	switch rs.Status {
	case StatusRetry:
		if rs.RetryAfterMS, err = rd.u32(); err != nil {
			return nil, err
		}
		return rs, rd.done()
	case StatusErr:
		n, err := rd.u32()
		if err != nil {
			return nil, err
		}
		if int(n) > len(rd.b) || n > maxErrLen {
			return nil, fmt.Errorf("serve: error text of %d bytes out of bounds", n)
		}
		rs.Err = string(rd.b[:n])
		rd.b = rd.b[n:]
		return rs, rd.done()
	case StatusNotFound, StatusDeadline:
		return rs, rd.done()
	case StatusFenced:
		if rs.FencedEpoch, err = rd.u64(); err != nil {
			return nil, err
		}
		return rs, rd.done()
	case StatusOK:
	default:
		return nil, fmt.Errorf("serve: unknown status %d", st)
	}
	tag, err := rd.u8()
	if err != nil {
		return nil, err
	}
	switch tag {
	case 'V':
		if rs.Version, err = rd.u8(); err != nil {
			return nil, err
		}
		if rs.Version < 1 {
			return nil, fmt.Errorf("serve: HELLO answered version %d < 1", rs.Version)
		}
		if rs.Window, err = rd.u32(); err != nil {
			return nil, err
		}
	case 'L':
		n, err := rd.count0(MaxMGetKeys, 5)
		if err != nil {
			return nil, err
		}
		rs.Lookups = make([]Lookup, n)
		for i := range rs.Lookups {
			t, _ := rd.u32()
			f, err := rd.u8()
			if err != nil {
				return nil, err
			}
			if f > 1 {
				return nil, fmt.Errorf("serve: bad found flag %d", f)
			}
			rs.Lookups[i] = Lookup{TID: core.TID(t), Found: f == 1}
		}
	case 'P':
		n, err := rd.count0(MaxScanRows, 8)
		if err != nil {
			return nil, err
		}
		rs.Pairs = make([]core.Pair, n)
		for i := range rs.Pairs {
			k, _ := rd.u32()
			t, _ := rd.u32()
			rs.Pairs[i] = core.Pair{Key: core.Key(k), TID: core.TID(t)}
		}
	case 'N':
		d, err := rd.u8()
		if err != nil {
			return nil, err
		}
		if d > 1 {
			return nil, fmt.Errorf("serve: bad scan done flag %d", d)
		}
		rs.ScanChunk, rs.ScanDone = true, d == 1
		n, err := rd.count0(MaxScanChunk, 8)
		if err != nil {
			return nil, err
		}
		rs.Pairs = make([]core.Pair, n)
		for i := range rs.Pairs {
			k, _ := rd.u32()
			t, _ := rd.u32()
			rs.Pairs[i] = core.Pair{Key: core.Key(k), TID: core.TID(t)}
		}
	case 'C':
		if rs.Cursor, err = rd.u64(); err != nil {
			return nil, err
		}
		if rs.Cursor == 0 {
			return nil, fmt.Errorf("serve: SCANOPEN answered cursor 0")
		}
	case 'S':
		n, err := rd.u32()
		if err != nil {
			return nil, err
		}
		if int(n) > len(rd.b) {
			return nil, io.ErrUnexpectedEOF
		}
		rs.Stats = append([]byte(nil), rd.b[:n]...)
		rd.b = rd.b[n:]
	case 'R':
		if rs.Repl, err = decodeReplResp(rd); err != nil {
			return nil, err
		}
	case 'E':
	default:
		return nil, fmt.Errorf("serve: unknown OK payload tag %q", tag)
	}
	return rs, rd.done()
}

// decodeReplResp parses the 'R'-tagged REPLICATE response payload.
func decodeReplResp(rd *reader) (*ReplResp, error) {
	k, err := rd.u8()
	if err != nil {
		return nil, err
	}
	rp := &ReplResp{Kind: ReplKind(k)}
	if rp.Epoch, err = rd.u64(); err != nil {
		return nil, err
	}
	switch rp.Kind {
	case ReplStatus:
		role, err := rd.u8()
		if err != nil {
			return nil, err
		}
		if role < uint8(RolePrimary) || role > uint8(RoleFenced) {
			return nil, fmt.Errorf("serve: unknown replication role %d", role)
		}
		rp.Role = ReplRole(role)
		n, err := rd.count0(MaxReplShards, 8)
		if err != nil {
			return nil, err
		}
		rp.ShardLSNs = make([]uint64, n)
		for i := range rp.ShardLSNs {
			rp.ShardLSNs[i], _ = rd.u64()
		}
	case ReplFetch:
		if rp.PrimaryLSN, err = rd.u64(); err != nil {
			return nil, err
		}
		if rp.Count, err = rd.u32(); err != nil {
			return nil, err
		}
		if rp.Records, err = rd.bytes(MaxReplBytes); err != nil {
			return nil, err
		}
	case ReplSnap:
		if rp.SnapLSN, err = rd.u64(); err != nil {
			return nil, err
		}
		if rp.SnapSize, err = rd.u64(); err != nil {
			return nil, err
		}
		if rp.Offset, err = rd.u64(); err != nil {
			return nil, err
		}
		d, err := rd.u8()
		if err != nil {
			return nil, err
		}
		if d > 1 {
			return nil, fmt.Errorf("serve: bad done flag %d", d)
		}
		rp.Done = d == 1
		if rp.Chunk, err = rd.bytes(MaxReplBytes); err != nil {
			return nil, err
		}
	case ReplFence:
	default:
		return nil, fmt.Errorf("serve: unknown REPLICATE kind %d", k)
	}
	return rp, nil
}

// appendRequestFrame appends r as one length-prefixed frame; on an
// error dst comes back as it was.
func appendRequestFrame(dst []byte, id uint32, r *Request) ([]byte, error) {
	out, err := AppendRequest(append(dst, 0, 0, 0, 0), id, r)
	return sealFrame(dst, out, err)
}

// appendResponseFrame appends rs as one length-prefixed frame; on an
// error dst comes back as it was.
func appendResponseFrame(dst []byte, id uint32, rs *Response) ([]byte, error) {
	out, err := AppendResponse(append(dst, 0, 0, 0, 0), id, rs)
	return sealFrame(dst, out, err)
}

// sealFrame fills in the length prefix of the frame that out appended
// to dst, or returns dst on an encoding error. The encoders bound every
// payload well under MaxFrame.
func sealFrame(dst, out []byte, err error) ([]byte, error) {
	if err != nil {
		return dst, err
	}
	binary.LittleEndian.PutUint32(out[len(dst):], uint32(len(out)-len(dst)-4))
	return out, nil
}

// ReadFrame reads one length-prefixed frame, reusing buf, for the
// length prefix too, when it is large enough. It refuses frames larger
// than MaxFrame.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(buf[:4])
	if n > MaxFrame {
		return nil, fmt.Errorf("serve: frame of %d bytes exceeds %d", n, MaxFrame)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// frameReader takes request frames off a connection through one
// fixed-size buffer, so a single read(2) can deliver many frames and a
// caller can ask for the ones already in hand without waiting.
type frameReader struct {
	br   *bufio.Reader
	skip int // bytes of the previously returned frame still in br
}

// next returns the payload of the next frame; the slice is valid until
// the following call. With block unset it returns nil, nil unless a
// whole frame is already buffered — it never touches the connection. A
// frame larger than the buffer is never whole in it, so it is only
// ever returned by a blocking call (into memory of its own).
func (f *frameReader) next(block bool) ([]byte, error) {
	f.br.Discard(f.skip) // cannot fail: skip bytes are buffered
	f.skip = 0
	if !block && f.br.Buffered() < 4 {
		return nil, nil
	}
	hdr, err := f.br.Peek(4)
	if err != nil {
		return nil, err
	}
	n32 := binary.LittleEndian.Uint32(hdr)
	if n32 > MaxFrame {
		return nil, fmt.Errorf("serve: frame of %d bytes exceeds %d", n32, MaxFrame)
	}
	n := int(n32)
	if !block && f.br.Buffered() < 4+n {
		return nil, nil
	}
	if 4+n <= f.br.Size() {
		p, err := f.br.Peek(4 + n)
		if err != nil {
			return nil, err
		}
		f.skip = 4 + n
		return p[4:], nil
	}
	f.br.Discard(4)
	buf := make([]byte, n)
	_, err = io.ReadFull(f.br, buf)
	return buf, err
}
