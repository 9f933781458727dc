package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"pbtree/internal/core"
)

// recodeReq encodes and re-decodes a request under an ID, which must
// come back unchanged.
func recodeReq(t *testing.T, id uint32, r *Request) *Request {
	t.Helper()
	payload, err := AppendRequest(nil, id, r)
	if err != nil {
		t.Fatalf("encode %+v: %v", r, err)
	}
	gotID, got, err := DecodeRequest(payload)
	if err != nil || gotID != id {
		t.Fatalf("decode %+v: id %d (sent %d), %v", r, gotID, id, err)
	}
	return got
}

func TestWireRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpGet, Keys: []core.Key{42}, DeadlineMS: 250},
		{Op: OpMGet, Keys: []core.Key{1, 2, 3, 0xffffffff}},
		{Op: OpDel, Keys: []core.Key{8}},
		{Op: OpScan, Start: 10, End: 900, Limit: 55},
		{Op: OpPut, Pairs: []core.Pair{{Key: 1, TID: 2}, {Key: 3, TID: 4}}},
		{Op: OpStats},
	}
	for i, r := range reqs {
		if got := recodeReq(t, uint32(i)<<28|7, r); !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip changed %+v to %+v", r, got)
		}
	}
	// Encoder bounds.
	if _, err := AppendRequest(nil, 1, &Request{Op: OpGet}); err == nil {
		t.Fatal("GET with no key encoded")
	}
	if _, err := AppendRequest(nil, 1, &Request{Op: OpScan, Limit: MaxScanRows + 1}); err == nil {
		t.Fatal("oversized SCAN limit encoded")
	}
	if _, err := AppendRequest(nil, 1, &Request{Op: OpHello, MaxVersion: 1}); err == nil {
		t.Fatal("HELLO below the protocol version encoded")
	}
	if _, err := AppendRequest(nil, 1, &Request{Op: Op(200)}); err == nil {
		t.Fatal("unknown op encoded")
	}
	// Decoder bounds: truncation and trailing garbage are errors, and a
	// cut behind the ID still reports it.
	full, _ := AppendRequest(nil, 9, &Request{Op: OpMGet, Keys: []core.Key{1, 2, 3}})
	for cut := 0; cut < len(full); cut++ {
		id, _, err := DecodeRequest(full[:cut])
		if err == nil {
			t.Fatalf("truncated request at %d decoded", cut)
		}
		if cut >= 4 && id != 9 {
			t.Fatalf("truncated request at %d lost its ID: %d", cut, id)
		}
	}
	if _, _, err := DecodeRequest(append(full, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	resps := []*Response{
		{Status: StatusOK, Lookups: []Lookup{{TID: 9, Found: true}, {Found: false}}},
		{Status: StatusOK, Pairs: []core.Pair{{Key: 5, TID: 6}}},
		{Status: StatusOK, Stats: []byte(`{"x":1}`)},
		{Status: StatusOK},
		{Status: StatusNotFound},
		{Status: StatusRetry, RetryAfterMS: 7},
		{Status: StatusErr, Err: "boom"},
		{Status: StatusDeadline},
	}
	for i, rs := range resps {
		id := uint32(i)<<28 | 7
		payload, err := AppendResponse(nil, id, rs)
		if err != nil {
			t.Fatalf("encode %+v: %v", rs, err)
		}
		gotID, got, err := DecodeResponse(payload)
		if err != nil || gotID != id {
			t.Fatalf("decode %+v: id %d (sent %d), %v", rs, gotID, id, err)
		}
		if !reflect.DeepEqual(got, rs) {
			t.Fatalf("round trip changed %+v to %+v", rs, got)
		}
		for cut := 0; cut < len(payload); cut++ {
			if _, _, err := DecodeResponse(payload[:cut]); err == nil {
				t.Fatalf("truncated response %+v at %d decoded", rs, cut)
			}
		}
	}
}

// writeFrame writes one length-prefixed frame, as a hand-rolled peer
// would.
func writeFrame(w io.Writer, payload []byte) error {
	_, err := w.Write(append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...))
	return err
}

func TestWireFrames(t *testing.T) {
	var b bytes.Buffer
	if err := writeFrame(&b, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&b, nil); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(b.Bytes())
	f1, err := ReadFrame(r, nil)
	if err != nil || string(f1) != "hello" {
		t.Fatalf("frame 1 = %q, %v", f1, err)
	}
	f2, err := ReadFrame(r, f1)
	if err != nil || len(f2) != 0 {
		t.Fatalf("frame 2 = %q, %v", f2, err)
	}
	if _, err := ReadFrame(r, nil); err != io.EOF {
		t.Fatalf("EOF frame: %v", err)
	}
	// A length prefix beyond MaxFrame is rejected before allocating.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(huge), nil); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

// FuzzWireRequest: any byte string either fails to decode or decodes
// to an ID and a request that re-encode and re-decode identically.
// Decoding must never panic or allocate past the wire bounds; a payload
// shorter than the ID always errors.
func FuzzWireRequest(f *testing.F) {
	seed := func(id uint32, r *Request) {
		payload, err := AppendRequest(nil, id, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	seed(1, &Request{Op: OpGet, Keys: []core.Key{1}})
	seed(2, &Request{Op: OpMGet, Keys: []core.Key{1, 2, 3}})
	seed(3, &Request{Op: OpScan, Start: 1, End: 2, Limit: 3})
	seed(4, &Request{Op: OpPut, Pairs: []core.Pair{{Key: 1, TID: 2}}})
	seed(5, &Request{Op: OpDel, Keys: []core.Key{4}})
	seed(1<<31, &Request{Op: OpStats})
	seed(7, &Request{Op: OpHello, MaxVersion: ProtoVersion})
	seed(8, &Request{Op: OpScanNext, Cursor: 1, Max: 256})
	f.Add([]byte{})
	f.Add([]byte{7, 2})                                          // a legacy un-ID'd opener
	f.Add([]byte{9, 0, 0, 0, 2, 0, 0, 0, 0, 255, 255, 255, 255}) // MGET, lying count
	f.Fuzz(func(t *testing.T, data []byte) {
		id, req, err := DecodeRequest(data)
		if len(data) < 4 && err == nil {
			t.Fatalf("payload of %d bytes decoded without an ID", len(data))
		}
		if err != nil {
			return
		}
		re, err := AppendRequest(nil, id, req)
		if err != nil {
			t.Fatalf("decoded request %+v does not re-encode: %v", req, err)
		}
		againID, again, err := DecodeRequest(re)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if againID != id || !reflect.DeepEqual(req, again) {
			t.Fatalf("unstable round trip: %d %+v vs %d %+v", id, req, againID, again)
		}
	})
}

// FuzzWireResponse: same contract for the response codec.
func FuzzWireResponse(f *testing.F) {
	seed := func(id uint32, rs *Response) {
		payload, err := AppendResponse(nil, id, rs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	seed(1, &Response{Status: StatusOK, Lookups: []Lookup{{TID: 1, Found: true}}})
	seed(2, &Response{Status: StatusOK, Pairs: []core.Pair{{Key: 1, TID: 2}}})
	seed(3, &Response{Status: StatusOK, Stats: []byte("{}")})
	seed(4, &Response{Status: StatusOK})
	seed(5, &Response{Status: StatusRetry, RetryAfterMS: 5})
	seed(1<<31, &Response{Status: StatusErr, Err: "x"})
	seed(7, &Response{Status: StatusOK, Version: ProtoVersion, Window: 32})
	f.Add([]byte{0, 'S', 255})                            // shorter than the ID
	f.Add([]byte{9, 0, 0, 0, 0, 'S', 255, 255, 255, 255}) // stats tag, lying length
	f.Fuzz(func(t *testing.T, data []byte) {
		id, rs, err := DecodeResponse(data)
		if len(data) < 4 && err == nil {
			t.Fatalf("payload of %d bytes decoded without an ID", len(data))
		}
		if err != nil {
			return
		}
		re, err := AppendResponse(nil, id, rs)
		if err != nil {
			t.Fatalf("decoded response %+v does not re-encode: %v", rs, err)
		}
		againID, again, err := DecodeResponse(re)
		if err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
		if againID != id || !reflect.DeepEqual(rs, again) {
			t.Fatalf("unstable round trip: %d %+v vs %d %+v", id, rs, againID, again)
		}
	})
}
