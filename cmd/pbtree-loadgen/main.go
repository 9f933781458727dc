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
// worker opens a cursor (SCANOPEN), pulls 10 000 rows in 256-row
// chunks (SCANNEXT), and lets exhaustion close the cursor — holding at
// most one chunk of scan row tokens at a time (PROTOCOL.md §10). An
// MGET asks for 16 keys and a SCAN for 100 rows; -skew zipf draws with
// exponent 1.1.
//
// To read a follower, point -addr at it with a read-only mix: it
// answers reads like any server and rejects writes.
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
	"time"

	"pbtree"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pbtree-loadgen: ")
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "server address")
		conns     = flag.Int("conns", 4, "concurrent connections")
		window    = flag.Int("window", 1, "outstanding calls per connection (pipelined when > 1)")
		duration  = flag.Duration("duration", 2*time.Second, "run length")
		keys      = flag.Int("keys", 1_000_000, "key-space size (match the server's -keys)")
		getPct    = flag.Int("get", 0, "GET percent of the mix")
		mgetPct   = flag.Int("mget", 0, "MGET percent of the mix")
		scanPct   = flag.Int("scan", 0, "SCAN percent of the mix")
		streamPct = flag.Int("stream", 0, "streaming-scan percent of the mix (SCANOPEN/SCANNEXT cursors)")
		putPct    = flag.Int("put", 0, "PUT percent of the mix")
		delPct    = flag.Int("del", 0, "DEL percent of the mix")
		skew      = flag.String("skew", "uniform", "key distribution: uniform|zipf")
		seed      = flag.Int64("seed", 1, "base RNG seed (conn i uses seed+i)")
		timeout   = flag.Duration("timeout", time.Second, "per-request deadline")
	)
	flag.Parse()

	rep, err := pbtree.RunLoadgen(pbtree.LoadgenConfig{
		Addr:      *addr,
		Conns:     *conns,
		Window:    *window,
		Duration:  *duration,
		Keys:      *keys,
		GetPct:    *getPct,
		MGetPct:   *mgetPct,
		ScanPct:   *scanPct,
		StreamPct: *streamPct,
		PutPct:    *putPct,
		DelPct:    *delPct,
		Skew:      *skew,
		Seed:      *seed,
		Timeout:   *timeout,
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
