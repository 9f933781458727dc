// Package pbtree is the public API of this repository: a faithful
// reproduction of Prefetching B+-Trees from "Improving Index
// Performance through Prefetching" (Shimin Chen, Phillip B. Gibbons,
// Todd C. Mowry; SIGMOD 2001).
//
// The package re-exports the names its users reference — the
// benchmark harness, the commands, the examples and the root tests —
// from five layers:
//
//   - A simulated memory hierarchy (Hierarchy) modelling two cache
//     levels, a pipelined main memory and software prefetch, with the
//     paper's Compaq ES40-derived parameters as defaults. Go has no
//     prefetch intrinsic, so the paper's cache behaviour is reproduced
//     on this substrate; all reported times are simulated cycles.
//   - The pB+-Tree family (Tree): B+-Trees with nodes Width cache
//     lines wide, whole-node prefetching, and optional external or
//     internal jump-pointer arrays for range-scan prefetching. Trees
//     support bulkload, search, insertion, lazy deletion and
//     (segmented) range scans, and are fully functional indexes.
//   - The CSB+-Tree baseline (CSBTree) with bulkload and search.
//   - An observability layer: the attribution Collector that explains
//     simulated runs without perturbing them, and the serving metrics
//     registry (Metrics) for the native model.
//   - A serving layer (Store, Server): pB+-Trees hash-partitioned
//     across single-writer shards with lock-free snapshot reads,
//     batched group lookups (Tree.SearchBatch), and a TCP front end
//     with a load generator (cmd/pbtree-server, cmd/pbtree-loadgen).
//
// Quick start:
//
//	t := pbtree.MustNew(pbtree.Config{
//		Width:     8,
//		Prefetch:  true,
//		JumpArray: pbtree.JumpExternal,
//	})
//	t.Bulkload(pairs, 1.0)
//	tid, ok := t.Search(42)
//	n := t.Scan(100, 1000) // scan 1000 tupleIDs from key 100
//
// The experiment harness that regenerates every table and figure of
// the paper lives in cmd/pbench.
package pbtree

import (
	"io"
	"net/http"

	"pbtree/internal/core"
	"pbtree/internal/csbtree"
	"pbtree/internal/heap"
	"pbtree/internal/memsys"
	"pbtree/internal/obs"
	"pbtree/internal/query"
	"pbtree/internal/repl"
	"pbtree/internal/serve"
)

// Core index types.
type (
	// Key is a 4-byte index key.
	Key = core.Key
	// TID is a 4-byte tuple identifier.
	TID = core.TID
	// Pair is a <key, tupleID> pair.
	Pair = core.Pair
	// Tree is a (prefetching) B+-Tree over a simulated hierarchy.
	Tree = core.Tree
	// Config selects the tree variant (width, prefetching, jump-pointer
	// arrays, cost model, memory hierarchy).
	Config = core.Config
	// UpdateStats counts structural events (splits, redistributions...).
	UpdateStats = core.UpdateStats
	// JumpArrayKind selects the range-scan prefetch structure.
	JumpArrayKind = core.JumpArrayKind
)

// The baseline index the paper compares against.
type (
	// CSBTree is a Cache-Sensitive B+-Tree (bulkload, search, and —
	// as an extension beyond the paper — insertion/lazy deletion).
	CSBTree = csbtree.Tree
	// CSBConfig configures a CSBTree.
	CSBConfig = csbtree.Config
)

// Memory model types. Every index takes a Model: the simulated
// Hierarchy reproduces the paper's numbers cycle for cycle, while the
// Native model charges nothing, so the same index code runs at real
// wall-clock speed and is safe for concurrent use.
type (
	// Model is the memory-system interface indexes charge to.
	Model = memsys.Model
	// Hierarchy is the cycle-accurate simulated two-level cache
	// hierarchy (single-threaded; owns the simulated clock).
	Hierarchy = memsys.Hierarchy
	// Native is the native model: it charges nothing, carries the
	// line size, and is immutable, so one may be shared freely.
	Native = memsys.Native
	// MemConfig describes a memory system (line size, caches, latencies).
	MemConfig = memsys.Config
	// MemStats is a snapshot of busy/stall cycles and miss counters.
	MemStats = memsys.Stats
	// AddressSpace allocates simulated addresses; share one between an
	// index and a heap table to co-locate them in the same cache.
	AddressSpace = memsys.AddressSpace
)

// Observability types. A Collector observes the hierarchy's
// memory-event stream and the tree's operation context; it is strictly
// observation-only — simulated cycle counts are byte-identical with
// and without it attached. Metrics is the native-model counterpart:
// wall-clock serving metrics.
type (
	// OpKind is an index operation (search, insert, delete, scan).
	OpKind = core.OpKind
	// Collector aggregates events into per-op, per-level, per-kind
	// miss and stall tables. Attach as both probe and tracer.
	Collector = obs.Collector
	// Metrics is the serving metrics registry: lock-free per-operation
	// latency histograms and one table of counters and gauges, read by
	// STATS, /statsz and the Prometheus exposition alike.
	Metrics = obs.Metrics
)

// Index operation kinds the examples time.
const (
	OpSearch = core.OpSearch
	OpScan   = core.OpScan
)

// NewCollector creates an empty attribution collector.
func NewCollector() *Collector { return obs.NewCollector() }

// NewMetrics creates an empty native serving-metrics registry.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// Storage and query layer types (the section 5 extensions).
type (
	// HeapTable is a simulated heap file of fixed-size tuples.
	HeapTable = heap.Table
	// QueryOptions controls the adaptive range-selection operators.
	QueryOptions = query.Options
)

// Jump-pointer array kinds. JumpExternal and JumpInternal are for
// simulated trees only: New refuses them on a *Native model, whose
// scans take the next leaf from the bottom non-leaf node.
const (
	// JumpNone disables across-leaf scan prefetching.
	JumpNone = core.JumpNone
	// JumpExternal maintains a chunked external jump-pointer array.
	JumpExternal = core.JumpExternal
	// JumpInternal links the bottom non-leaf nodes instead.
	JumpInternal = core.JumpInternal
)

// MaxKey is the largest possible key, usable as an open scan bound.
const MaxKey = core.MaxKey

// New creates a pB+-Tree with the given configuration. The zero
// Config is the plain one-line-node B+-Tree on a default hierarchy.
func New(cfg Config) (*Tree, error) { return core.New(cfg) }

// MustNew is New but panics on error.
func MustNew(cfg Config) *Tree { return core.MustNew(cfg) }

// MustNewCSB creates a CSB+-Tree baseline; it panics on a bad config.
func MustNewCSB(cfg CSBConfig) *CSBTree { return csbtree.MustNew(cfg) }

// DefaultMemConfig returns the paper's Compaq ES40-based machine
// parameters (64 B lines, 64 KB 2-way L1, 2 MB direct-mapped L2,
// T1 = 150 cycles, Tnext = 10 cycles, B = 15).
func DefaultMemConfig() MemConfig { return memsys.DefaultConfig() }

// NewHierarchy creates a simulated memory hierarchy.
func NewHierarchy(cfg MemConfig) *Hierarchy { return memsys.New(cfg) }

// DefaultHierarchy creates a hierarchy with DefaultMemConfig.
func DefaultHierarchy() *Hierarchy { return memsys.Default() }

// DefaultNative creates a native model with DefaultMemConfig (the
// node layouts match the simulated defaults).
func DefaultNative() *Native { return memsys.DefaultNative() }

// LoadTree reconstructs a tree serialized with Tree.WriteTo,
// bulkloading it at the given fill factor onto mem — a *Hierarchy for
// simulation or a *Native for real execution (nil selects a fresh
// default hierarchy).
func LoadTree(r io.Reader, mem Model, fill float64) (*Tree, error) {
	return core.Load(r, mem, fill)
}

// DiskMemConfig returns a disk-resident machine model: 4 KB pages, a
// 16 MB buffer pool, a 256 MB page cache, 5M-cycle disk latency with
// command queuing (B = 33). Section 5 of the paper: the same
// prefetching techniques hide disk latency with pages in place of
// cache lines.
func DiskMemConfig() MemConfig { return memsys.DiskConfig() }

// NewAddressSpace creates a simulated address allocator with the
// given alignment (use the hierarchy's line size).
func NewAddressSpace(lineSize int) *AddressSpace {
	return memsys.NewAddressSpace(lineSize)
}

// MustNewHeap creates a heap file of tupleSize-byte tuples charged to
// the given memory model and address space; it panics on a bad size.
func MustNewHeap(mem Model, space *AddressSpace, tupleSize int) *HeapTable {
	return heap.MustNew(mem, space, tupleSize)
}

// SelectTIDs runs an adaptive range selection over [start, end],
// calling emit per filled return buffer (section 4.3: plain scans for
// short estimated ranges, prefetching scans otherwise).
func SelectTIDs(t *Tree, start, end Key, opt QueryOptions, emit func([]TID)) int {
	return query.SelectTIDs(t, start, end, opt, emit)
}

// SelectTuples is SelectTIDs followed by prefetched tuple fetches from
// the heap table (section 5).
func SelectTuples(t *Tree, tab *HeapTable, start, end Key, opt QueryOptions, emit func(Key)) int {
	return query.SelectTuples(t, tab, start, end, opt, emit)
}

// IndexJoin probes the inner index once per outer key and reports the
// match count.
func IndexJoin(outer []Key, inner *Tree, emit func(Key, TID)) int {
	return query.IndexJoin(outer, inner, emit)
}

// IndexJoinTuples is IndexJoin with batched, prefetched tuple fetches.
func IndexJoinTuples(outer []Key, inner *Tree, tab *HeapTable, batch int, emit func(Key)) int {
	return query.IndexJoinTuples(outer, inner, tab, batch, emit)
}

// Serving layer (internal/serve): a sharded, snapshot-isolated store
// over pB+-Trees with batched group lookups, a TCP front end and a
// load generator.
type (
	// Store is a sharded key→tupleID store: lock-free snapshot reads,
	// one writer goroutine per shard.
	Store = serve.Store

	// StoreConfig configures a Store.
	StoreConfig = serve.StoreConfig

	// Lookup is one point-lookup result of a batched read.
	Lookup = serve.Lookup

	// Server is the TCP front end of a Store.
	Server = serve.Server

	// ServerConfig configures a Server.
	ServerConfig = serve.ServerConfig

	// ServeClient is a wire-protocol client; it pipelines concurrent
	// calls over one socket (PROTOCOL.md).
	ServeClient = serve.Client

	// ServeCall is one in-flight asynchronous client call
	// (ServeClient.Go).
	ServeCall = serve.Call

	// ServeRequest is one wire-protocol request; build these for the
	// asynchronous ServeClient.Go API (the synchronous helpers Get,
	// MGet, Scan, Put, Del build them internally).
	ServeRequest = serve.Request

	// ServeResponse is one wire-protocol response.
	ServeResponse = serve.Response

	// ServeOp identifies a wire-protocol operation (PROTOCOL.md §2.1).
	ServeOp = serve.Op

	// ServeStatus is a wire-protocol response status (PROTOCOL.md
	// §2.2).
	ServeStatus = serve.Status

	// LoadgenConfig describes a load-generation run.
	LoadgenConfig = serve.LoadgenConfig

	// LoadgenReport is the JSON result of a load-generation run.
	LoadgenReport = serve.LoadgenReport

	// LifecycleConfig configures a Server's request-lifecycle sinks
	// beside the always-on per-stage latency histograms: a sampled
	// slow-request log and an optional Chrome trace (DESIGN.md §12).
	LifecycleConfig = serve.LifecycleConfig

	// DurableConfig enables per-shard WAL + checkpoint persistence for
	// a Store (DESIGN.md §9).
	DurableConfig = serve.DurableConfig

	// FsyncPolicy selects when the WAL is fsynced.
	FsyncPolicy = serve.FsyncPolicy
)

// Replication layer (internal/repl): WAL shipping over the wire protocol
// and epoch-fenced failover (DESIGN.md §13). A follower answers reads
// through the ordinary server path, so an ordinary client reads it.
type (
	// ReplNode is one replication participant: it answers the
	// REPLICATE op class for its store (ServerConfig.Repl) and, on a
	// follower, pulls the primary's WAL.
	ReplNode = repl.Node

	// ReplConfig configures a ReplNode.
	ReplConfig = repl.Config
)

// NewReplNode builds a replication node over a store; call Start to
// activate it (see ReplConfig).
func NewReplNode(cfg ReplConfig) (*ReplNode, error) { return repl.New(cfg) }

// BackendLSM names the write-optimized storage engine
// (StoreConfig.Backend): memtable + sorted runs with bloom filters and
// size-tiered compaction. The default engine, "pbtree", serves reads
// from full-tree snapshots. The backend is part of a durable store's
// on-disk identity (DESIGN.md §11).
const BackendLSM = serve.BackendLSM

// NewAdminMux builds the admin-plane HTTP handler for a running
// server: /metrics (Prometheus), /healthz, /statsz and /debug/pprof
// (DESIGN.md §12). Mount it on its own listener, away
// from the data path. extra writers are appended to the /metrics
// exposition (e.g. ReplNode.WriteMetrics).
func NewAdminMux(srv *Server, st *Store, extra ...func(io.Writer) error) *http.ServeMux {
	return serve.NewAdminMux(srv, st, extra...)
}

// Wire-protocol operations (PROTOCOL.md §2.1). Prefixed Serve to
// stay clear of the tracer's index-operation kinds (OpSearch, OpScan,
// ...) above.
const (
	// ServeOpGet looks up one key.
	ServeOpGet = serve.OpGet

	// ServeOpMGet looks up a batch of keys as one group search.
	ServeOpMGet = serve.OpMGet

	// ServeOpScan returns pairs in a key range, capped by a row limit.
	ServeOpScan = serve.OpScan

	// ServeOpPut upserts a batch of pairs atomically per shard.
	ServeOpPut = serve.OpPut

	// ServeOpDel deletes a batch of keys.
	ServeOpDel = serve.OpDel

	// ServeOpStats returns the server's JSON stats payload.
	ServeOpStats = serve.OpStats

	// ServeOpHello negotiates the protocol version; must be the first
	// request on a connection (PROTOCOL.md §3).
	ServeOpHello = serve.OpHello

	// ServeOpReplicate carries the replication sub-commands: STATUS,
	// FETCH, SNAPFETCH and FENCE (PROTOCOL.md §9).
	ServeOpReplicate = serve.OpReplicate

	// ServeOpScanOpen registers a streaming-scan cursor over a key
	// range (PROTOCOL.md §10).
	ServeOpScanOpen = serve.OpScanOpen

	// ServeOpScanNext pulls the next bounded chunk of rows from a
	// streaming-scan cursor, admitting only that chunk's row tokens.
	ServeOpScanNext = serve.OpScanNext

	// ServeOpScanClose releases a streaming-scan cursor and the
	// snapshots it pins.
	ServeOpScanClose = serve.OpScanClose
)

// Wire-protocol response statuses (PROTOCOL.md §2.2).
const (
	// StatusOK carries the operation's result payload.
	StatusOK = serve.StatusOK

	// StatusNotFound reports a GET miss.
	StatusNotFound = serve.StatusNotFound

	// StatusRetry reports a request refused with no effect (a full
	// shard queue or the cursor cap); back off by the response's
	// retry-after hint.
	StatusRetry = serve.StatusRetry

	// StatusErr carries an error message.
	StatusErr = serve.StatusErr

	// StatusDeadline reports that the request's deadline expired
	// before execution.
	StatusDeadline = serve.StatusDeadline

	// StatusFenced rejects a replication request from the wrong epoch;
	// the payload carries the highest epoch the responder has seen.
	StatusFenced = serve.StatusFenced
)

// FsyncAlways is the WAL fsync policy that syncs before every
// acknowledgement (DurableConfig.Fsync; the commands parse the others
// by name).
const FsyncAlways = serve.FsyncAlways

// Serving-layer errors.
var (
	// ErrOverloaded reports a full shard mutation queue before any
	// part of the write was enqueued: back off and retry.
	ErrOverloaded = serve.ErrOverloaded

	// ErrPartialWrite reports a full shard mutation queue after
	// another shard took its part of the write, which applies.
	ErrPartialWrite = serve.ErrPartialWrite

	// ErrClosed reports a write to a closed store.
	ErrClosed = serve.ErrClosed
)

// OpenStore builds a sharded store from sorted, duplicate-free pairs
// and starts its shard writers, which read the pairs in place: the
// caller must not modify them until WaitReady returns.
func OpenStore(cfg StoreConfig, pairs []Pair) (*Store, error) {
	return serve.Open(cfg, pairs)
}

// NewServer wraps a store in a TCP front end; call Start to listen.
func NewServer(st *Store, cfg ServerConfig) *Server {
	return serve.NewServer(st, cfg)
}

// DialServer connects a wire-protocol client to a serving address;
// the connection is a pipeline any number of goroutines may share.
func DialServer(addr string) (*ServeClient, error) {
	return serve.Dial(addr)
}

// RunLoadgen drives a configured read/write/scan mix against a
// running server and reports throughput and latency percentiles.
func RunLoadgen(cfg LoadgenConfig) (*LoadgenReport, error) {
	return serve.RunLoadgen(cfg)
}
