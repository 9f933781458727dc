package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The rungs of the layer ladder, outermost first. A span's parent is
// the span of the same probe and op on the rung above.
const (
	rungWire = iota
	rungStore
	rungTree
	rungSim
	// Side rungs: same Store API as rungStore, other engines. Their
	// parent is the wire rung.
	rungStoreDurable
	rungStoreLSM
	numRungs
)

var rungNames = [numRungs]string{"wire", "store", "tree", "sim", "store-durable", "store-lsm"}

// span is one timed call into a layer.
type span struct {
	id, parent int64
	rung       int
	op         string
	start, end time.Duration // since the tracer's origin
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	opIDs  map[string]int64
}

func newTracer() *tracer { return &tracer{origin: time.Now(), opIDs: map[string]int64{}} }

// spanID is deterministic in (rung, op, probe), so a span can name its
// parent without the parent having been recorded yet.
func (t *tracer) spanID(rung int, op string, probe int) int64 {
	o, ok := t.opIDs[op]
	if !ok {
		o = int64(len(t.opIDs) + 1)
		t.opIDs[op] = o
	}
	return (int64(rung)+1)<<48 | o<<40 | int64(probe)
}

// parentRung is the rung whose span caused a span on rung r (-1: none).
func parentRung(r int) int {
	switch r {
	case rungWire:
		return -1
	case rungStoreDurable, rungStoreLSM:
		return rungWire
	}
	return r - 1
}

// add records one span; probe < 0 marks a span with no ladder position
// (the traced saturation run), which gets a fresh ID and no parent.
func (t *tracer) add(rung int, op string, probe int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{rung: rung, op: op, start: start.Sub(t.origin), end: end.Sub(t.origin)}
	if probe < 0 {
		s.id = int64(numRungs+1)<<48 | int64(len(t.spans))
	} else {
		s.id = t.spanID(rung, op, probe)
		if p := parentRung(rung); p >= 0 {
			s.parent = t.spanID(p, op, probe)
		}
	}
	t.spans = append(t.spans, s)
}

// time runs f as one span and returns its duration in nanoseconds.
func (t *tracer) time(rung int, op string, probe int, f func()) float64 {
	t0 := time.Now()
	f()
	t1 := time.Now()
	t.add(rung, op, probe, t0, t1)
	return float64(t1.Sub(t0))
}

// write stores the spans in Chrome trace-event format (load the file
// at ui.perfetto.dev or chrome://tracing): one complete ("X") event per
// span, one track per rung, times in microseconds.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for r, name := range rungNames {
		if r > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n"+`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%q}}`, r, name)
	}
	for _, s := range t.spans {
		fmt.Fprintf(w, ",\n"+`{"ph":"X","pid":1,"tid":%d,"name":%q,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"layer":%q}}`,
			s.rung, s.op, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent, rungNames[s.rung])
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
