package serve

import (
	"runtime"
	"sync/atomic"
	"time"

	"pbtree/internal/obs"
)

// AdmissionConfig sets the per-op-class token budgets of a Server.
// Admission replaces the old flat in-flight gate: each request class
// draws tokens from its own budget while executing, so a burst of
// expensive SCANs can exhaust only the scan budget — cheap GETs keep
// being admitted — and the retry-after hint sent on rejection reflects
// the class that is actually saturated (DESIGN.md §10, PROTOCOL.md §6).
type AdmissionConfig struct {
	// ReadTokens bounds concurrently executing GET/MGET requests; each
	// holds one token from admission until its burst's search is done.
	// Zero selects 4x the store's shard count or one pipeline window per
	// core (at least two), whichever is larger: every core can have a
	// full burst in hand without a healthy server refusing reads.
	ReadTokens int

	// WriteTokens bounds concurrently executing PUT/DEL requests; each
	// holds one token. Zero selects 2x the store's shard count or the
	// pipeline window, whichever is larger.
	WriteTokens int

	// ScanRowTokens bounds the total rows of concurrently executing
	// scan work: a monolithic SCAN holds Limit tokens while it runs,
	// and a streaming SCANNEXT holds its chunk's Max tokens only while
	// that chunk executes — between chunks a cursor holds none. Zero
	// selects 64k rows.
	ScanRowTokens int

	// RetryAfterRead/Write/Scan are the backoff hints sent with
	// StatusRetry when the matching budget is exhausted. Zero selects
	// the server's base RetryAfter for reads and writes and 4x the base
	// for scans (an exhausted scan budget drains slower).
	RetryAfterRead, RetryAfterWrite, RetryAfterScan time.Duration
}

// withDefaults resolves zero values against the store shape, the
// server's pipeline window, and its base retry hint.
func (c AdmissionConfig) withDefaults(shards, window int, baseRetry time.Duration) AdmissionConfig {
	if c.ReadTokens <= 0 {
		c.ReadTokens = max(4*shards, window*max(2, runtime.GOMAXPROCS(0)))
	}
	if c.WriteTokens <= 0 {
		c.WriteTokens = max(2*shards, window)
	}
	if c.ScanRowTokens <= 0 {
		c.ScanRowTokens = 64 << 10
	}
	if c.RetryAfterRead <= 0 {
		c.RetryAfterRead = baseRetry
	}
	if c.RetryAfterWrite <= 0 {
		c.RetryAfterWrite = baseRetry
	}
	if c.RetryAfterScan <= 0 {
		c.RetryAfterScan = 4 * baseRetry
	}
	return c
}

// opClass maps a wire op onto its admission class; control-plane ops
// (STATS, HELLO, SCANCLOSE) return false and bypass admission
// entirely. SCANCLOSE is deliberately unmetered: releasing resources
// must never be turned away by an exhausted budget, or an overloaded
// server could wedge itself holding cursors it refuses to let go.
func opClass(op Op) (obs.AdmissionClass, bool) {
	switch op {
	case OpGet, OpMGet:
		return obs.AdmRead, true
	case OpPut, OpDel:
		return obs.AdmWrite, true
	case OpScan, OpScanOpen, OpScanNext:
		return obs.AdmScan, true
	}
	return 0, false
}

// tokenBudget is one class's lock-free token pool.
type tokenBudget struct {
	capacity int64
	used     atomic.Int64
	rejects  atomic.Uint64
}

// tryAcquire takes n tokens if they fit the budget.
func (b *tokenBudget) tryAcquire(n int64) bool {
	for {
		u := b.used.Load()
		if u+n > b.capacity {
			return false
		}
		if b.used.CompareAndSwap(u, u+n) {
			return true
		}
	}
}

// release returns n tokens.
func (b *tokenBudget) release(n int64) { b.used.Add(-n) }

// admission is the server's per-class admission controller.
type admission struct {
	budgets    [obs.NumAdmissionClasses]tokenBudget
	retryAfter [obs.NumAdmissionClasses]time.Duration
	metrics    *obs.Metrics
}

// newAdmission builds the controller from a resolved config.
func newAdmission(cfg AdmissionConfig, metrics *obs.Metrics) *admission {
	a := &admission{metrics: metrics}
	a.budgets[obs.AdmRead].capacity = int64(cfg.ReadTokens)
	a.budgets[obs.AdmWrite].capacity = int64(cfg.WriteTokens)
	a.budgets[obs.AdmScan].capacity = int64(cfg.ScanRowTokens)
	a.retryAfter[obs.AdmRead] = cfg.RetryAfterRead
	a.retryAfter[obs.AdmWrite] = cfg.RetryAfterWrite
	a.retryAfter[obs.AdmScan] = cfg.RetryAfterScan
	for _, c := range []obs.AdmissionClass{obs.AdmRead, obs.AdmWrite, obs.AdmScan} {
		metrics.AdmissionCapacity(c, a.budgets[c].capacity)
	}
	return a
}

// cost is the token price of a request: one per cheap op, the
// requested row limit per monolithic SCAN, and one chunk's row budget
// per SCANNEXT. The streaming ops are what make big scans cheap to
// admit: a cursor holds zero row tokens between chunks, so a 1M-row
// stream never occupies more of the scan budget than its chunk size
// (PROTOCOL.md §10.4). Tokens are released when the response is
// ready, whatever the op actually returned.
func cost(req *Request) int64 {
	switch req.Op {
	case OpScan:
		return int64(req.Limit)
	case OpScanNext:
		return int64(req.Max)
	}
	return 1
}

// grant is the tokens one admitted request holds until release; the
// zero grant (ops outside every class: STATS, HELLO, SCANCLOSE) holds
// none.
type grant struct {
	class obs.AdmissionClass
	n     int64
}

// admit takes the request's tokens or reports the saturated class's
// retry hint.
func (a *admission) admit(req *Request) (g grant, retryAfter time.Duration, ok bool) {
	class, metered := opClass(req.Op)
	if !metered {
		return grant{}, 0, true
	}
	g = grant{class: class, n: cost(req)}
	b := &a.budgets[class]
	if !b.tryAcquire(g.n) {
		b.rejects.Add(1)
		a.metrics.AdmissionReject(class)
		return grant{}, a.retryAfter[class], false
	}
	a.metrics.AdmissionAcquire(class, g.n)
	return g, 0, true
}

// release returns a grant's tokens. Grants of one class add, so a
// burst of admitted reads is released as one grant.
func (a *admission) release(g grant) {
	if g.n == 0 {
		return
	}
	a.budgets[g.class].release(g.n)
	a.metrics.AdmissionRelease(g.class, g.n)
}

// BudgetStats is the STATS view of one admission class.
type BudgetStats struct {
	Capacity int64  `json:"capacity"` // total tokens in the class budget
	InUse    int64  `json:"in_use"`   // tokens held by executing requests
	Rejected uint64 `json:"rejected"` // requests turned away since start
}

// stats snapshots every class for the STATS payload.
func (a *admission) stats() map[string]BudgetStats {
	out := make(map[string]BudgetStats, int(obs.NumAdmissionClasses))
	for _, c := range []obs.AdmissionClass{obs.AdmRead, obs.AdmWrite, obs.AdmScan} {
		out[c.String()] = BudgetStats{
			Capacity: a.budgets[c].capacity,
			InUse:    a.budgets[c].used.Load(),
			Rejected: a.budgets[c].rejects.Load(),
		}
	}
	return out
}
