// Command pbtree-loadgen drives a read/write/scan mix against a
// running pbtree-server and reports throughput and latency
// percentiles as JSON on stdout.
//
// Usage:
//
//	pbtree-loadgen -addr 127.0.0.1:7070 -conns 8 -duration 10s \
//	    -skew zipf -get 70 -mget 15 -scan 5 -put 10
//
// -stream N gives N percent of draws to a full streaming scan: the
// worker opens a cursor (SCANOPEN), pulls -stream-rows rows in
// -stream-chunk chunks (SCANNEXT), and lets exhaustion close the
// cursor — holding at most one chunk of scan row tokens at a time
// (PROTOCOL.md §10).
//
// -replicas lists read-replica addresses; connections then
// round-robin across -addr and the replicas (the mix must be
// read-only), measuring a replica set's aggregate read throughput.
//
// -window N keeps N calls outstanding per connection (closed loop:
// total concurrency is conns x window); -window 1 is the classic one-round-trip-at-a-time
// loop. The report records the window and per-class reject counts.
//
// The exit status is nonzero if the run completed zero operations or
// saw hard (non-backpressure) errors, so smoke tests can gate on it.
package main

import (
	"encoding/json"
	"flag"
	"log"
	"os"
	"strings"
	"time"

	"pbtree"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pbtree-loadgen: ")
	var (
		addr        = flag.String("addr", "127.0.0.1:7070", "server address")
		replicas    = flag.String("replicas", "", "comma-separated replica addresses: connections round-robin across -addr and these (read-only mix required)")
		conns       = flag.Int("conns", 4, "concurrent connections")
		window      = flag.Int("window", 1, "outstanding calls per connection (pipelined when > 1)")
		duration    = flag.Duration("duration", 2*time.Second, "run length")
		keys        = flag.Int("keys", 1_000_000, "key-space size (match the server's -keys)")
		getPct      = flag.Int("get", 0, "GET percent of the mix")
		mgetPct     = flag.Int("mget", 0, "MGET percent of the mix")
		scanPct     = flag.Int("scan", 0, "SCAN percent of the mix")
		streamPct   = flag.Int("stream", 0, "streaming-scan percent of the mix (SCANOPEN/SCANNEXT cursors)")
		putPct      = flag.Int("put", 0, "PUT percent of the mix")
		delPct      = flag.Int("del", 0, "DEL percent of the mix")
		batch       = flag.Int("batch", 16, "keys per MGET")
		scanRows    = flag.Int("scanrows", 100, "row limit per SCAN")
		streamRows  = flag.Int("stream-rows", 0, "target rows per streaming scan (0 = 10000)")
		streamChunk = flag.Int("stream-chunk", 0, "rows per SCANNEXT chunk (0 = 256)")
		skew        = flag.String("skew", "uniform", "key distribution: uniform|zipf|hotset")
		zipfS       = flag.Float64("zipf-s", 1.1, "Zipf exponent (skew=zipf)")
		hotFrac     = flag.Float64("hot-frac", 0.01, "hot key fraction (skew=hotset)")
		hotProb     = flag.Float64("hot-prob", 0.9, "hot traffic share (skew=hotset)")
		seed        = flag.Int64("seed", 1, "base RNG seed (conn i uses seed+i)")
		timeout     = flag.Duration("timeout", time.Second, "per-request deadline")
	)
	flag.Parse()

	var reps []string
	if *replicas != "" {
		reps = strings.Split(*replicas, ",")
	}
	rep, err := pbtree.RunLoadgen(pbtree.LoadgenConfig{
		Addr:        *addr,
		Replicas:    reps,
		Conns:       *conns,
		Window:      *window,
		Duration:    *duration,
		Keys:        *keys,
		GetPct:      *getPct,
		MGetPct:     *mgetPct,
		ScanPct:     *scanPct,
		StreamPct:   *streamPct,
		PutPct:      *putPct,
		DelPct:      *delPct,
		Batch:       *batch,
		ScanLimit:   *scanRows,
		StreamRows:  *streamRows,
		StreamChunk: *streamChunk,
		Skew:        *skew,
		ZipfS:       *zipfS,
		HotFrac:     *hotFrac,
		HotProb:     *hotProb,
		Seed:        *seed,
		Timeout:     *timeout,
	})
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	if rep.Ops == 0 {
		log.Fatal("zero operations completed")
	}
	if rep.Errors > 0 {
		log.Fatalf("%d hard errors", rep.Errors)
	}
}
