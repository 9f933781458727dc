package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pbtree/internal/core"
	"pbtree/internal/obs"
	"pbtree/internal/workload"
)

// The load shape's fixed sizes: no caller sets them to anything else.
const (
	loadgenBatch       = 16     // keys per MGET
	loadgenScanLimit   = 100    // row limit per SCAN
	loadgenStreamRows  = 10_000 // rows one streaming scan targets
	loadgenStreamChunk = 256    // rows per SCANNEXT chunk (≤ MaxScanChunk)
	loadgenZipfS       = 1.1    // Zipf exponent of the "zipf" skew
)

// LoadgenConfig describes one load-generation run.
type LoadgenConfig struct {
	// Addr is the server address.
	Addr string `json:"addr"`

	// Conns is the number of concurrent connections. Zero selects 4.
	Conns int `json:"conns"`

	// Window is how many calls each connection keeps outstanding
	// (closed-loop, via the pipelined client): total concurrency is
	// Conns x Window, and the report records both so connection count
	// is never conflated with concurrency. Zero selects 1 — the
	// classic one-round-trip-at-a-time loop.
	Window int `json:"window"`

	// Duration is how long to drive load. Zero selects 2s. It is
	// echoed in the JSON report (as nanoseconds) so a run is fully
	// reproducible from its report alone.
	Duration time.Duration `json:"duration_ns"`

	// GetPct, MGetPct, ScanPct, StreamPct, PutPct, DelPct set the
	// operation mix in percent; they must sum to at most 100 and the
	// remainder goes to GET. All zero selects 80/10/5/0/5/0.
	GetPct    int `json:"get_pct"`    // GET share (also absorbs the remainder)
	MGetPct   int `json:"mget_pct"`   // MGET share
	ScanPct   int `json:"scan_pct"`   // SCAN share
	StreamPct int `json:"stream_pct"` // streaming-scan share (one full SCANOPEN→SCANNEXT*→close per draw)
	PutPct    int `json:"put_pct"`    // PUT share
	DelPct    int `json:"del_pct"`    // DEL share

	// Keys is the preloaded key-space size n (keys of SortedPairs(n)).
	// Zero selects 100_000.
	Keys int `json:"keys"`

	// Skew selects the key distribution: "uniform" or "zipf". Empty
	// selects uniform.
	Skew string `json:"skew"`

	// Seed makes runs reproducible per connection (conn i uses
	// Seed+i). Zero selects 1.
	Seed int64 `json:"seed"`

	// Timeout is the per-request deadline. Zero selects 1s. Echoed in
	// the report like Duration.
	Timeout time.Duration `json:"timeout_ns"`
}

// withDefaults resolves the zero values.
func (c LoadgenConfig) withDefaults() (LoadgenConfig, error) {
	if c.Conns == 0 {
		c.Conns = 4
	}
	if c.Window == 0 {
		c.Window = 1
	}
	if c.Window < 0 {
		return c, fmt.Errorf("serve: window %d invalid", c.Window)
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.GetPct == 0 && c.MGetPct == 0 && c.ScanPct == 0 && c.StreamPct == 0 && c.PutPct == 0 && c.DelPct == 0 {
		c.GetPct, c.MGetPct, c.ScanPct, c.PutPct = 80, 10, 5, 5
	}
	sum := c.GetPct + c.MGetPct + c.ScanPct + c.StreamPct + c.PutPct + c.DelPct
	if sum > 100 || c.GetPct < 0 || c.MGetPct < 0 || c.ScanPct < 0 || c.StreamPct < 0 || c.PutPct < 0 || c.DelPct < 0 {
		return c, fmt.Errorf("serve: op mix %d/%d/%d/%d/%d/%d invalid", c.GetPct, c.MGetPct, c.ScanPct, c.StreamPct, c.PutPct, c.DelPct)
	}
	c.GetPct += 100 - sum
	if c.Keys == 0 {
		c.Keys = 100_000
	}
	if c.Skew == "" {
		c.Skew = "uniform"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout == 0 {
		c.Timeout = time.Second
	}
	return c, nil
}

// keyStream builds the configured key distribution for one connection.
func (c LoadgenConfig) keyStream(seed int64) (workload.KeyStream, error) {
	r := rand.New(rand.NewSource(seed))
	switch c.Skew {
	case "uniform":
		return workload.NewUniformKeys(r, c.Keys), nil
	case "zipf":
		return workload.NewZipfKeys(r, c.Keys, loadgenZipfS, 1)
	default:
		return nil, fmt.Errorf("serve: unknown skew %q (want uniform or zipf)", c.Skew)
	}
}

// OpReport summarizes one operation class of a run.
type OpReport struct {
	Count  uint64  `json:"count"`   // completed calls
	MeanUS float64 `json:"mean_us"` // mean latency, microseconds
	P50US  float64 `json:"p50_us"`  // median latency, microseconds
	P90US  float64 `json:"p90_us"`  // 90th-percentile latency, microseconds
	P99US  float64 `json:"p99_us"`  // 99th-percentile latency, microseconds
	P999US float64 `json:"p999_us"` // 99.9th-percentile latency, microseconds
}

// LoadgenReport is the JSON result of a run.
type LoadgenReport struct {
	Config      LoadgenConfig       `json:"config"`           // the defaulted config the run used
	DurationMS  int64               `json:"duration_ms"`      // measured run length, clock start to the last worker's exit
	Concurrency int                 `json:"concurrency"`      // Conns x Window outstanding calls
	Ops         uint64              `json:"ops"`              // completed operations
	Rows        uint64              `json:"rows"`             // keys looked up / rows scanned / pairs written
	Throughput  float64             `json:"ops_per_sec"`      // Ops over the measured duration
	Rejected    uint64              `json:"rejected"`         // StatusRetry rejections
	Deadline    uint64              `json:"deadline_expired"` // calls that hit their deadline
	Errors      uint64              `json:"errors"`           // hard (non-backpressure) failures
	NotFound    uint64              `json:"not_found"`        // GETs answered StatusNotFound
	PerOp       map[string]OpReport `json:"per_op"`           // latency breakdown per op name
}

// RunLoadgen drives the configured mix against a running server and
// reports throughput and latency percentiles. It fails only on setup
// errors (bad config, cannot connect); per-request rejections and
// deadline misses are counted in the report.
func RunLoadgen(cfg LoadgenConfig) (*LoadgenReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	clients := make([]*Client, cfg.Conns)
	for i := range clients {
		cl, err := Dial(cfg.Addr)
		if err != nil {
			for _, c := range clients[:i] {
				c.Close()
			}
			return nil, fmt.Errorf("serve: dialing %s: %w", cfg.Addr, err)
		}
		cl.Timeout = cfg.Timeout
		clients[i] = cl
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	var (
		metrics  = obs.NewMetrics() // wall-clock latency per op class
		ops      atomic.Uint64
		rows     atomic.Uint64
		rejected atomic.Uint64
		expired  atomic.Uint64
		errs     atomic.Uint64
		notFound atomic.Uint64
	)
	// Build every worker's key stream before starting the clock: a
	// skewed stream carries an O(keys) permutation, and Conns×Window of
	// them would otherwise eat into the measured window (at high window
	// counts, most of it).
	streams := make([]workload.KeyStream, cfg.Conns*cfg.Window)
	for w := range streams {
		s, err := cfg.keyStream(cfg.Seed + int64(w))
		if err != nil {
			return nil, err
		}
		streams[w] = s
	}

	// A worker checks the deadline only before each call, so an op in
	// flight at the deadline (up to Timeout) or a back-off after a
	// rejection runs past it; the report divides by the elapsed time,
	// not the configured one.
	begin := time.Now()
	deadline := begin.Add(cfg.Duration)
	var wg sync.WaitGroup
	// Window workers share each connection: the pipelined client keeps
	// their calls outstanding concurrently, so per-connection
	// concurrency is the window size, not 1.
	for i, cl := range clients {
		for j := 0; j < cfg.Window; j++ {
			stream := streams[i*cfg.Window+j]
			wg.Add(1)
			go func(cl *Client, stream workload.KeyStream, r *rand.Rand) {
				defer wg.Done()
				keys := make([]core.Key, loadgenBatch)
				for time.Now().Before(deadline) {
					dice := r.Intn(100)
					var (
						op    core.OpKind
						n     uint64
						err   error
						found = true
					)
					start := time.Now()
					switch {
					case dice < cfg.GetPct:
						op, n = core.OpSearch, 1
						_, found, err = cl.Get(stream.Next())
					case dice < cfg.GetPct+cfg.MGetPct:
						op, n = core.OpSearch, loadgenBatch
						for j := range keys {
							keys[j] = stream.Next()
						}
						_, err = cl.MGet(keys)
					case dice < cfg.GetPct+cfg.MGetPct+cfg.ScanPct:
						op = core.OpScan
						startKey := stream.Next()
						var pairs []core.Pair
						pairs, err = cl.Scan(startKey, startKey+8*loadgenScanLimit, loadgenScanLimit)
						n = uint64(len(pairs))
					case dice < cfg.GetPct+cfg.MGetPct+cfg.ScanPct+cfg.StreamPct:
						// One full streaming scan per draw: the latency sample
						// covers open → every chunk → close, rows counts what
						// the chunks actually returned (keys are 8 apart, so
						// the range sizes the target row count).
						op = core.OpScan
						startKey := stream.Next()
						err = cl.StreamScan(startKey, startKey+8*loadgenStreamRows, loadgenStreamChunk, func(rows []core.Pair) bool {
							n += uint64(len(rows))
							return true
						})
					case dice < cfg.GetPct+cfg.MGetPct+cfg.ScanPct+cfg.StreamPct+cfg.PutPct:
						op, n = core.OpInsert, 1
						k := stream.Next()
						err = cl.Put(core.Pair{Key: k, TID: core.TID(k)})
					default:
						op, n = core.OpDelete, 1
						// Delete then restore, so the key space stays stable
						// across long runs.
						k := stream.Next()
						if err = cl.Del(k); err == nil {
							err = cl.Put(core.Pair{Key: k, TID: core.TID(k)})
						}
					}
					lat := time.Since(start)
					switch {
					case err == nil:
						metrics.Observe(op, lat)
						ops.Add(1)
						rows.Add(n)
						if !found {
							notFound.Add(1)
						}
					case errors.As(err, new(*RetryError)):
						rejected.Add(1)
						time.Sleep(cfg.Timeout / 100)
					case errors.As(err, new(*DeadlineError)):
						expired.Add(1)
					default:
						errs.Add(1)
						return // connection-level failure: stop this worker
					}
				}
			}(cl, stream, rand.New(rand.NewSource(cfg.Seed^int64(0x9e3779b9*uint32(i*cfg.Window+j+1)))))
		}
	}
	wg.Wait()
	elapsed := time.Since(begin)

	rep := &LoadgenReport{
		Config:      cfg,
		DurationMS:  elapsed.Milliseconds(),
		Concurrency: cfg.Conns * cfg.Window,
		Ops:         ops.Load(),
		Rows:        rows.Load(),
		Rejected:    rejected.Load(),
		Deadline:    expired.Load(),
		Errors:      errs.Load(),
		NotFound:    notFound.Load(),
		PerOp:       map[string]OpReport{},
	}
	rep.Throughput = float64(rep.Ops) / elapsed.Seconds()
	for _, op := range []core.OpKind{core.OpSearch, core.OpScan, core.OpInsert, core.OpDelete} {
		s := metrics.Snapshot(op)
		if s.Count == 0 {
			continue
		}
		rep.PerOp[op.String()] = OpReport{
			Count:  s.Count,
			MeanUS: float64(s.Mean()) / 1e3,
			P50US:  float64(s.Quantile(0.5)) / 1e3,
			P90US:  float64(s.Quantile(0.90)) / 1e3,
			P99US:  float64(s.Quantile(0.99)) / 1e3,
			P999US: float64(s.Quantile(0.999)) / 1e3,
		}
	}
	return rep, nil
}
