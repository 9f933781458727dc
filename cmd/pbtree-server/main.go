// Command pbtree-server serves a sharded pB+-Tree store over TCP with
// the length-prefixed wire protocol of internal/serve (GET / MGET /
// SCAN / PUT / DEL / STATS; normative spec in PROTOCOL.md).
// Connections are full-duplex pipelines (every frame carries a request
// ID): the requests one read delivers (up to the window of 32 that
// HELLO reports) are a burst, answered by the connection's goroutine
// before it reads again — its GETs and MGETs together, then its PUTs
// and DELs once their group commits complete — so responses return out
// of order. There is no admission control: the window bounds what a
// connection holds, and a SCAN asks for at most one chunk of rows.
//
// Usage:
//
//	pbtree-server -addr :7070 -keys 1000000 -shards 8
//	pbtree-server -addr :7070 -data-dir /var/lib/pbtree -fsync always
//	pbtree-server -addr :7070 -backend lsm -data-dir /var/lib/pbtree
//	pbtree-server -addr :7070 -admin :7071 -slow-log 1ms
//
// -backend selects the per-shard storage engine: "pbtree" (default)
// serves reads from immutable full-tree snapshots, "lsm" absorbs
// writes in a memtable and flushes sorted runs (DESIGN.md §11). A
// durable directory remembers its backend and refuses to reopen under
// the other one.
//
// -admin mounts the operational HTTP plane on a second address:
// /metrics (Prometheus text format: per-op and per-stage latency
// histograms, request and durability counters, per-shard gauges),
// /healthz (503 until every shard has recovered), /statsz (the STATS
// payload as JSON, read from the same cells as /metrics) and
// /debug/pprof. The per-stage request-lifecycle histograms are always
// on (near-zero cost); -slow-log logs any request slower
// than the given threshold with its full stage breakdown, at most ten
// lines per second; -lifecycle-trace streams every traced request to
// a Chrome trace file (load at ui.perfetto.dev).
//
// The store is preloaded with the standard workload key space (keys
// 8, 16, ..., 8*N with TID = key/8) so a load generator can start
// immediately. With -data-dir the store is durable: every shard keeps
// a write-ahead log + checkpoints there, an existing directory is
// recovered on boot (the -keys preload only seeds a fresh one), and
// acked writes survive kill -9 under -fsync always. SIGINT/SIGTERM
// drain gracefully: in-flight requests finish and the WAL is flushed
// before the process exits.
//
// Logging is structured (log/slog, text format); -log-level selects
// debug, info, warn or error.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"pbtree"
	"pbtree/internal/serve"
	"pbtree/internal/workload"
)

// parseLevel maps a -log-level value onto a slog level.
func parseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "listen address")
		admin     = flag.String("admin", "", "admin HTTP address for /metrics, /healthz, /statsz, /debug/pprof (empty = disabled)")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
		keys      = flag.Int("keys", 1_000_000, "preload N sequential keys")
		shards    = flag.Int("shards", 0, "shard count (0 = GOMAXPROCS)")
		be        = flag.String("backend", "pbtree", "storage backend per shard: pbtree|lsm")
		width     = flag.Int("width", 8, "tree node width in cache lines")
		cursorTmo = flag.Duration("cursor-timeout", 0, "reclaim idle streaming-scan cursors after this long (0 = 30s)")
		drain     = flag.Duration("drain", 5*time.Second, "graceful shutdown budget")
		dataDir   = flag.String("data-dir", "", "durable data directory (empty = in-memory only)")
		fsync     = flag.String("fsync", "always", "WAL fsync policy: always|interval|never")
		ckptEvry  = flag.Int("checkpoint-every", 4096, "WAL records per shard segment, and the fewest between checkpoints (a pbtree shard also waits for as many WAL bytes as its last checkpoint)")
		walKeep   = flag.Int("wal-retain", 0, "superseded WAL segments retained per shard for follower catch-up")
		replicaOf = flag.String("replica-of", "", "primary serving address to follow (makes this node a read replica; requires -data-dir)")
		epochFlag = flag.Uint64("epoch", 0, "minimum replication epoch to run at (0 = whatever the MANIFEST records)")
		replSync  = flag.Bool("repl-sync", false, "synchronous replication: acknowledge writes only after a follower ack")
		syncTmo   = flag.Duration("repl-sync-timeout", 2*time.Second, "how long a synchronous write waits for a follower ack")
		slowLog   = flag.Duration("slow-log", 0, "log requests slower than this with their stage breakdown (0 = off)")
		lcTrace   = flag.String("lifecycle-trace", "", "write a Chrome trace of traced requests to this file")
	)
	flag.Parse()

	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbtree-server:", err)
		os.Exit(1)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)
	fail := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	metrics := pbtree.NewMetrics()
	cfg := pbtree.StoreConfig{
		Shards:  *shards,
		Backend: *be,
		Tree:    pbtree.Config{Width: *width, Prefetch: *width > 1},
		Metrics: metrics,
		Replica: *replicaOf != "",
		Epoch:   *epochFlag,
	}
	if *dataDir != "" {
		policy, err := serve.ParseFsyncPolicy(*fsync)
		if err != nil {
			fail("fsync policy", err)
		}
		cfg.Durable = &pbtree.DurableConfig{
			Dir:             *dataDir,
			Fsync:           policy,
			CheckpointEvery: *ckptEvry,
			WALRetain:       *walKeep,
		}
	}
	seed := workload.SortedPairs(*keys)
	if *replicaOf != "" {
		seed = nil // a replica's contents come from the primary, not a preload
	}
	st, err := pbtree.OpenStore(cfg, seed)
	if err != nil {
		fail("open store", err)
	}
	if err := st.WaitReady(); err != nil {
		fail("recovery", err)
	}
	// The seed (64 MB at 8 M keys) is dead now: collect it before it sizes the next GC target.
	runtime.GC()
	for _, rs := range st.Recovery() {
		if rs.Bootstrapped {
			logger.Info("shard bootstrapped", "shard", rs.Shard, "pairs", rs.Pairs, "dir", *dataDir)
			continue
		}
		logger.Info("shard recovered", "shard", rs.Shard, "pairs", rs.Pairs,
			"checkpoint_lsn", rs.CheckpointLSN, "replayed", rs.Replayed,
			"torn_bytes", rs.TornBytes, "took", rs.Duration.Round(time.Millisecond).String())
	}

	// The replication node serves FETCH on a primary (and installs the
	// sync gate with -repl-sync); with -replica-of it pulls the
	// primary's WAL per shard. Durable-only: epochs live in the
	// MANIFEST and shipping reads WAL segment files.
	var replNode *pbtree.ReplNode
	if *dataDir != "" {
		replNode, err = pbtree.NewReplNode(pbtree.ReplConfig{
			Store:       st,
			Primary:     *replicaOf,
			Sync:        *replSync,
			SyncTimeout: *syncTmo,
			Metrics:     metrics,
			Logf: func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			fail("replication", err)
		}
		if err := replNode.Start(); err != nil {
			fail("replication", err)
		}
		if *replicaOf != "" {
			logger.Info("following primary", "primary", *replicaOf, "epoch", st.Epoch())
		}
	} else if *replicaOf != "" || *replSync {
		fail("replication", fmt.Errorf("-replica-of and -repl-sync need -data-dir (epochs and WAL shipping are durable-only)"))
	}

	lc := pbtree.LifecycleConfig{SlowThreshold: *slowLog}
	var traceFile *os.File
	if *lcTrace != "" {
		traceFile, err = os.Create(*lcTrace)
		if err != nil {
			fail("lifecycle trace", err)
		}
		lc.Trace = traceFile
	}
	scfg := pbtree.ServerConfig{
		Addr:          *addr,
		CursorTimeout: *cursorTmo,
		Metrics:       metrics,
		Lifecycle:     lc,
	}
	if replNode != nil {
		scfg.Repl = replNode
	}
	srv := pbtree.NewServer(st, scfg)
	if err := srv.Start(); err != nil {
		fail("listen", err)
	}

	var adminSrv *http.Server
	if *admin != "" {
		ln, err := net.Listen("tcp", *admin)
		if err != nil {
			fail("admin listen", err)
		}
		var extra []func(io.Writer) error
		mux := func() *http.ServeMux {
			if replNode == nil {
				return pbtree.NewAdminMux(srv, st)
			}
			extra = append(extra, replNode.WriteMetrics)
			m := pbtree.NewAdminMux(srv, st, extra...)
			replNode.Mount(m) // /replz and POST /promote
			return m
		}()
		adminSrv = &http.Server{Handler: mux}
		go func() {
			if err := adminSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				logger.Error("admin server", "err", err)
			}
		}()
		logger.Info("admin plane up", "addr", ln.Addr().String())
	}

	logger.Info("serving",
		"keys", st.Len(), "addr", srv.Addr().String(), "shards", st.Shards(),
		"backend", *be, "width", *width)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	logger.Info("draining", "signal", s.String(), "budget", drain.String())
	if adminSrv != nil {
		adminSrv.Close()
	}
	err = srv.Shutdown(*drain)
	if replNode != nil {
		replNode.Close()
	}
	st.Close()
	if traceFile != nil {
		traceFile.Close()
	}
	if err != nil {
		fail("shutdown", err)
	}
	logger.Info("drained cleanly")
}
