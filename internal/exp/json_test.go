package exp

import (
	"bytes"
	"reflect"
	"testing"
)

// TestJSONRoundTrip runs a real experiment and pushes its tables
// through the pbench -json encoding and back.
func TestJSONRoundTrip(t *testing.T) {
	tables, err := Run("fig2", tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	rs := RunSet{
		Scale: 0.002, Seed: 1,
		Results: []Result{
			{ID: "fig2", WallSeconds: 0.25, Tables: tables},
			{ID: "fig99", Err: `unknown experiment "fig99"`},
		},
	}

	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, rs) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, rs)
	}
}
