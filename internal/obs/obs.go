// Package obs is the observability layer of the repository. It turns
// the raw event streams of the other layers into explanations:
//
//   - Collector joins the memsys.Probe event stream of a simulated
//     Hierarchy with the core.Tracer operation-context stream of a
//     Tree, and aggregates misses and stall cycles into per-operation,
//     per-tree-level, per-node-kind tables — the per-level analogue of
//     the paper's execution-time breakdown figures.
//   - TraceWriter dumps the same joined stream as a Chrome-trace
//     JSON file (load it at chrome://tracing or ui.perfetto.dev).
//   - Metrics is the native-path serving side: lock-free per-operation
//     latency histograms and one table of counters and gauges, with
//     Prometheus text exposition.
//
// Everything here is observation only: probes and tracers charge
// nothing to the memory model, so simulated cycle counts are
// byte-identical with and without them attached.
package obs

import (
	"fmt"
	"sort"

	"pbtree/internal/core"
	"pbtree/internal/memsys"
)

// Cell is the counter set of one (operation, level, kind) attribution
// bucket.
type Cell struct {
	L1Hits      uint64
	L2Hits      uint64
	MemMisses   uint64
	PFHits      uint64
	PFIssues    uint64
	StallCycles uint64
}

// add merges a memory event into the cell.
func (c *Cell) add(e memsys.Event) {
	switch e.Kind {
	case memsys.EvL1Hit:
		c.L1Hits++
	case memsys.EvL2Hit:
		c.L2Hits++
	case memsys.EvMemMiss:
		c.MemMisses++
	case memsys.EvPrefetchHit:
		c.PFHits++
	case memsys.EvPrefetchIssue:
		c.PFIssues++
	}
	c.StallCycles += e.Stall
}

// Row is one attributed line of a Collector report.
type Row struct {
	Op    core.OpKind
	Level int // 0 = root, core.LevelNone = outside the tree
	Kind  core.NodeKind
	Cell
}

// key identifies an attribution bucket.
type key struct {
	op    core.OpKind
	level int
	kind  core.NodeKind
}

// Collector attributes memory-hierarchy events to the operation and
// node context announced by a core.Tracer. Attach the same Collector
// as both the hierarchy's probe (SetProbe) and the tree's tracer
// (Config.Trace); it is single-threaded, like the Hierarchy it
// observes.
type Collector struct {
	cur    key
	cells  map[key]*Cell
	events uint64
}

// NewCollector returns an empty collector, ready to attach.
func NewCollector() *Collector {
	return &Collector{
		cur:   key{op: core.OpNone, level: core.LevelNone, kind: core.KindOther},
		cells: map[key]*Cell{},
	}
}

// MemEvent implements memsys.Probe: the event is charged to the
// current (operation, level, kind) context.
func (c *Collector) MemEvent(e memsys.Event) {
	c.events++
	cell := c.cells[c.cur]
	if cell == nil {
		cell = &Cell{}
		c.cells[c.cur] = cell
	}
	cell.add(e)
}

// BeginOp implements core.Tracer.
func (c *Collector) BeginOp(op core.OpKind) {
	c.cur = key{op: op, level: core.LevelNone, kind: core.KindOther}
}

// EndOp implements core.Tracer.
func (c *Collector) EndOp(core.OpKind) {
	c.cur = key{op: core.OpNone, level: core.LevelNone, kind: core.KindOther}
}

// Node implements core.Tracer.
func (c *Collector) Node(level int, kind core.NodeKind) {
	c.cur.level, c.cur.kind = level, kind
}

// Events reports how many memory events the collector has seen.
func (c *Collector) Events() uint64 { return c.events }

// Reset clears all buckets (for example after a bulkload, whose
// traffic is rarely interesting) without detaching the collector.
func (c *Collector) Reset() {
	c.cells = map[key]*Cell{}
	c.events = 0
}

// TotalStall reports the summed stall cycles across all buckets. On a
// run observed end to end it equals Stats.Stall of the hierarchy.
func (c *Collector) TotalStall() uint64 {
	var total uint64
	for _, cell := range c.cells {
		total += cell.StallCycles
	}
	return total
}

// Rows returns the attribution table, sorted by operation, then level
// (tree levels first, LevelNone last), then kind.
func (c *Collector) Rows() []Row {
	rows := make([]Row, 0, len(c.cells))
	for k, cell := range c.cells {
		rows = append(rows, Row{Op: k.op, Level: k.level, Kind: k.kind, Cell: *cell})
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		al, bl := a.Level, b.Level
		if al == core.LevelNone {
			al = 1 << 30 // outside-the-tree rows sort last
		}
		if bl == core.LevelNone {
			bl = 1 << 30
		}
		if al != bl {
			return al < bl
		}
		return a.Kind < b.Kind
	})
	return rows
}

// LevelLabel formats an attribution level for display.
func LevelLabel(level int) string {
	if level == core.LevelNone {
		return "-"
	}
	return fmt.Sprintf("%d", level)
}
