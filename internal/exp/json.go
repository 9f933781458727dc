package exp

import (
	"encoding/json"
	"io"
)

// Result is the machine-readable outcome of one experiment run.
// Exactly one of Tables and Err is meaningful: a failed experiment
// carries its panic message in Err and no tables.
type Result struct {
	ID          string  `json:"id"`
	WallSeconds float64 `json:"wall_seconds"`
	Tables      []Table `json:"tables,omitempty"`
	Err         string  `json:"error,omitempty"`
}

// RunSet is the top-level JSON document pbench -json emits: the
// options the experiments ran under plus one Result per requested id,
// in request order.
type RunSet struct {
	Scale   float64  `json:"scale"`
	Seed    int64    `json:"seed"`
	Results []Result `json:"results"`
}

// WriteJSON writes the run set as indented JSON.
func (rs RunSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs)
}

// ReadJSON parses a document written by WriteJSON.
func ReadJSON(r io.Reader) (RunSet, error) {
	var rs RunSet
	err := json.NewDecoder(r).Decode(&rs)
	return rs, err
}
