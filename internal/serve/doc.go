// Package serve is the serving layer of the repository: it turns the
// frozen-tree read safety of internal/core and the zero-cost native
// memory model of internal/memsys into a component that can sustain
// heavy concurrent traffic.
//
// The architecture (DESIGN.md §8–§10):
//
//   - Store hash-partitions keys across N independent pB+-Trees. Each
//     shard has exactly one writer goroutine; reads never take a lock.
//     The writer applies a batch to a new version of the shard's tree
//     — a fork that copies only the blocks it writes — and publishes
//     it with an atomic.Pointer swap, so every read runs against an
//     immutable version (copy-on-write publication, single-writer /
//     many-reader), and a version somebody still holds delays the
//     reuse of the blocks replaced since and nothing else.
//   - Store.MGet groups a batch of keys by shard and runs each group
//     through core.Tree.SearchBatch, the group-pipelined search whose
//     node fetches overlap in memory (the simulated `mget` experiment
//     of internal/exp); the server feeds it the reads of one burst.
//   - Store.Scan, SCAN and the streaming cursors are one scan path
//     (scan.go): a cursor opens every shard's scanner in one
//     level-lockstep descent (core.OpenScans, through backend.Runs),
//     keeps one resumable run per shard that each refill continues,
//     and merges the shard runs without a data-dependent branch.
//   - DurableStore layers per-shard write-ahead logs and checkpoints
//     (wal.go, durable.go) under the Store so a crash loses nothing
//     that was acknowledged.
//   - Server is a TCP front end speaking the length-prefixed binary
//     protocol specified in PROTOCOL.md (GET / MGET / SCAN / PUT /
//     DEL / STATS / HELLO, and the streaming SCANOPEN / SCANNEXT /
//     SCANCLOSE). A connection is a full-duplex pipeline: every frame
//     carries a request ID, and the requests one read delivers are a
//     burst that the connection's goroutine answers before it reads
//     again — its GETs and MGETs together with one group search, its
//     scans in place, then its PUTs and DELs, enqueued to their shard
//     writers as they arrived and awaited together — so responses are
//     not written in arrival order.
//   - There is no admission control: a connection's burst (at most
//     window frames) is its own bound on what it asks of the server,
//     and a SCAN is at most one chunk's rows (MaxScanRows). StatusRetry
//     comes only from a full shard queue, refused before any part of
//     the write was enqueued, or from the per-connection cursor cap.
//   - Client mirrors the server: calls share one connection by request
//     ID (Client.Go is the async form), one writer sends what they
//     queued in one write, and Dial opens with a HELLO for the window.
//   - Loadgen drives configurable read/write/scan mixes with uniform
//     or Zipfian key skew (internal/workload) across
//     Conns × Window concurrent streams and reports throughput and
//     latency percentiles.
package serve
