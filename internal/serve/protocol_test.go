package serve

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"pbtree/internal/core"
)

// TestProtocolSpecFrames is the conformance test binding PROTOCOL.md
// to the codec: every fenced `frame` block in the spec is parsed into
// bytes and compared byte-for-byte against the same message built by
// this package, and every message below must appear in the spec. If
// either side changes without the other, this test fails — the spec
// cannot drift from the implementation silently.
func TestProtocolSpecFrames(t *testing.T) {
	spec := parseSpecFrames(t)

	frame := func(payload []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return append(appendU32(nil, uint32(len(payload))), payload...)
	}
	req := func(id uint32, r *Request) []byte {
		return frame(AppendRequest(nil, id, r))
	}
	resp := func(id uint32, rs *Response) []byte {
		return frame(AppendResponse(nil, id, rs))
	}

	want := map[string][]byte{
		"hello-request": req(1, &Request{Op: OpHello, MaxVersion: 2}),
		"hello-ok-response": resp(1, &Response{
			Status: StatusOK, Version: 2, Window: 32,
		}),
		"mget-request": req(2, &Request{
			Op: OpMGet, DeadlineMS: 250, Keys: []core.Key{8, 24},
		}),
		"scan-request": req(3, &Request{
			Op: OpScan, Start: 16, End: 80, Limit: 100,
		}),
		"scan-ok-response": resp(3, &Response{
			Status: StatusOK,
			Pairs:  []core.Pair{{Key: 16, TID: 2}, {Key: 24, TID: 3}},
		}),
		"put-request": req(4, &Request{
			Op: OpPut, Pairs: []core.Pair{{Key: 8, TID: 1}},
		}),
		"empty-ok-response": resp(4, &Response{Status: StatusOK}),
		"retry-response":    resp(5, &Response{Status: StatusRetry, RetryAfterMS: 5}),
		"err-response":      resp(6, &Response{Status: StatusErr, Err: "bad frame"}),
		"get-request":       req(7, &Request{Op: OpGet, Keys: []core.Key{8}}),
		"get-ok-response": resp(7, &Response{
			Status:  StatusOK,
			Lookups: []Lookup{{TID: 1, Found: true}},
		}),
		"notfound-response": resp(8, &Response{Status: StatusNotFound}),
		"deadline-response": resp(9, &Response{Status: StatusDeadline}),
		"repl-status-request": req(11, &Request{
			Op: OpReplicate, Repl: &ReplReq{Kind: ReplStatus},
		}),
		"repl-status-ok-response": resp(11, &Response{
			Status: StatusOK,
			Repl: &ReplResp{
				Kind: ReplStatus, Epoch: 3, Role: RoleReplica,
				ShardLSNs: []uint64{42, 7},
			},
		}),
		"repl-fetch-request": req(12, &Request{
			Op: OpReplicate, Repl: &ReplReq{
				Kind: ReplFetch, Epoch: 3, Shard: 1,
				After: 42, Applied: 42, Max: 1048576,
			},
		}),
		"repl-fetch-ok-response": resp(12, &Response{
			Status: StatusOK,
			Repl: &ReplResp{
				Kind: ReplFetch, Epoch: 3, PrimaryLSN: 44, Count: 2,
				Records: []byte{0xde, 0xad, 0xbe, 0xef},
			},
		}),
		"repl-snapfetch-request": req(13, &Request{
			Op: OpReplicate, Repl: &ReplReq{
				Kind: ReplSnapFetch, Epoch: 3, Shard: 1,
				SnapLSN: 40, Offset: 0, Max: 1048576,
			},
		}),
		"repl-snap-ok-response": resp(13, &Response{
			Status: StatusOK,
			Repl: &ReplResp{
				Kind: ReplSnap, Epoch: 3, SnapLSN: 40, SnapSize: 4,
				Offset: 0, Done: true, Chunk: []byte{0xca, 0xfe, 0xf0, 0x0d},
			},
		}),
		"repl-fence-request": req(14, &Request{
			Op: OpReplicate, Repl: &ReplReq{Kind: ReplFence, Epoch: 4},
		}),
		"repl-fence-ok-response": resp(14, &Response{
			Status: StatusOK,
			Repl:   &ReplResp{Kind: ReplFence, Epoch: 4},
		}),
		"repl-fenced-response": resp(15, &Response{
			Status: StatusFenced, FencedEpoch: 4,
		}),
		"scanopen-request": req(21, &Request{
			Op: OpScanOpen, Start: 16, End: 4096,
		}),
		"scanopen-ok-response": resp(21, &Response{
			Status: StatusOK, Cursor: 1,
		}),
		"scannext-request": req(22, &Request{
			Op: OpScanNext, Cursor: 1, Max: 2,
		}),
		"scannext-ok-response": resp(22, &Response{
			Status: StatusOK, ScanChunk: true,
			Pairs: []core.Pair{{Key: 16, TID: 2}, {Key: 24, TID: 3}},
		}),
		"scannext-done-response": resp(23, &Response{
			Status: StatusOK, ScanChunk: true, ScanDone: true,
			Pairs: []core.Pair{{Key: 32, TID: 4}},
		}),
		"scanclose-request": req(24, &Request{
			Op: OpScanClose, Cursor: 1,
		}),
		"scanclose-ok-response": resp(24, &Response{Status: StatusOK}),
	}

	for name, wantBytes := range want {
		got, ok := spec[name]
		if !ok {
			t.Errorf("PROTOCOL.md is missing example frame %q", name)
			continue
		}
		if !bytes.Equal(got, wantBytes) {
			t.Errorf("frame %q: spec and codec disagree\n spec:  %s\n codec: %s",
				name, hex.EncodeToString(got), hex.EncodeToString(wantBytes))
		}
	}
	for name := range spec {
		if _, ok := want[name]; !ok {
			t.Errorf("PROTOCOL.md frame %q has no conformance check; add it to this test", name)
		}
	}

	// Every spec frame must also be acceptable to the decoder.
	for name, f := range spec {
		var err error
		if strings.HasSuffix(name, "-request") {
			_, _, err = DecodeRequest(f[4:])
		} else {
			_, _, err = DecodeResponse(f[4:])
		}
		if err != nil {
			t.Errorf("spec frame %q does not decode: %v", name, err)
		}
	}
}

// TestProtocolSpecLimits pins the size-limit table in PROTOCOL.md §7
// to the codec constants.
func TestProtocolSpecLimits(t *testing.T) {
	doc, err := os.ReadFile("../../PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		value int
	}{
		{"MaxFrame", MaxFrame},
		{"MaxMGetKeys", MaxMGetKeys},
		{"MaxScanRows", MaxScanRows},
		{"MaxScanChunk", MaxScanChunk},
		{"MaxReplBytes", MaxReplBytes},
		{"MaxReplShards", MaxReplShards},
		{"max error text", maxErrLen},
	} {
		row := fmt.Sprintf("%s` | %d |", c.name, c.value)
		if c.name == "max error text" {
			row = fmt.Sprintf("%s | %d |", c.name, c.value)
		}
		if !strings.Contains(string(doc), row) {
			t.Errorf("PROTOCOL.md §7 does not state %s = %d", c.name, c.value)
		}
	}
}

// parseSpecFrames extracts the fenced ```frame blocks from PROTOCOL.md.
// Each block is "name: <frame-name>" followed by lines of hex byte
// pairs; everything after '|' on a line is commentary.
func parseSpecFrames(t *testing.T) map[string][]byte {
	t.Helper()
	doc, err := os.ReadFile("../../PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	frames := make(map[string][]byte)
	lines := strings.Split(string(doc), "\n")
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "```frame" {
			continue
		}
		i++
		if i >= len(lines) || !strings.HasPrefix(lines[i], "name: ") {
			t.Fatalf("PROTOCOL.md line %d: frame block must open with \"name: ...\"", i+1)
		}
		name := strings.TrimSpace(strings.TrimPrefix(lines[i], "name: "))
		if _, dup := frames[name]; dup {
			t.Fatalf("PROTOCOL.md: duplicate frame name %q", name)
		}
		var buf []byte
		for i++; i < len(lines) && strings.TrimSpace(lines[i]) != "```"; i++ {
			hexPart := lines[i]
			if cut := strings.IndexByte(hexPart, '|'); cut >= 0 {
				hexPart = hexPart[:cut]
			}
			for _, tok := range strings.Fields(hexPart) {
				b, err := strconv.ParseUint(tok, 16, 8)
				if err != nil {
					t.Fatalf("PROTOCOL.md frame %q: bad hex byte %q: %v", name, tok, err)
				}
				buf = append(buf, byte(b))
			}
		}
		if len(buf) < 4 {
			t.Fatalf("PROTOCOL.md frame %q: too short to carry a length prefix", name)
		}
		frames[name] = buf
	}
	if len(frames) == 0 {
		t.Fatal("PROTOCOL.md contains no ```frame blocks")
	}
	return frames
}
