package serve

import (
	"sync/atomic"
	"time"

	"pbtree/internal/obs"
)

// admClass indexes the per-op-class admission budgets (DESIGN.md §10):
// cheap point ops and mutations each hold one token while executing,
// scans hold one token per requested row, so overload rejects
// expensive work first. The registry's three-row admission families
// are in this order: the cell of class c is base + obs.Counter(c).
type admClass int

// The admission classes.
const (
	admRead  admClass = iota // GET / MGET point lookups
	admWrite                 // PUT / DEL mutations
	admScan                  // SCAN, metered in rows
	numAdmClasses
)

// admClassNames are the classes' keys in STATS and loadgen reports.
var admClassNames = [numAdmClasses]string{"read", "write", "scan"}

// retryAfter is each class's backoff hint, sent with StatusRetry when
// its budget is exhausted; an exhausted scan budget drains slower.
var retryAfter = [numAdmClasses]time.Duration{5 * time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond}

// opClass maps a wire op onto its admission class; control-plane ops
// (STATS, HELLO, SCANCLOSE) return false and bypass admission
// entirely. SCANCLOSE is deliberately unmetered: releasing resources
// must never be turned away by an exhausted budget, or an overloaded
// server could wedge itself holding cursors it refuses to let go.
func opClass(op Op) (admClass, bool) {
	switch op {
	case OpGet, OpMGet:
		return admRead, true
	case OpPut, OpDel:
		return admWrite, true
	case OpScan, OpScanOpen, OpScanNext:
		return admScan, true
	}
	return 0, false
}

// tokenBudget is one class's lock-free token pool. The tokens in use
// live in the registry's gauge for the class, so /metrics prints the
// very cell the compare-and-swap runs on.
type tokenBudget struct {
	capacity int64
	used     *atomic.Int64
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

// admission is the server's per-class admission controller: each
// request class draws tokens from its own budget while executing, so a
// burst of expensive SCANs can exhaust only the scan budget — cheap
// GETs keep being admitted — and the retry hint sent on rejection is
// the saturated class's (DESIGN.md §10, PROTOCOL.md §6).
type admission struct {
	budgets [numAdmClasses]tokenBudget
	metrics *obs.Metrics
}

// newAdmission builds the controller over the three class capacities:
// concurrent GET/MGET requests, concurrent PUT/DEL requests, and rows
// of concurrently executing scan work.
func newAdmission(reads, writes, scanRows int, metrics *obs.Metrics) *admission {
	a := &admission{metrics: metrics}
	for c, capacity := range [numAdmClasses]int{reads, writes, scanRows} {
		a.budgets[c] = tokenBudget{capacity: int64(capacity), used: metrics.Cell(obs.AdmInUseRead + obs.Counter(c))}
		metrics.Set(obs.AdmCapacityRead+obs.Counter(c), int64(capacity))
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
	class admClass
	n     int64
}

// admit takes the request's tokens or reports the saturated class's
// retry hint.
func (a *admission) admit(req *Request) (g grant, retry time.Duration, ok bool) {
	class, metered := opClass(req.Op)
	if !metered {
		return grant{}, 0, true
	}
	g = grant{class: class, n: cost(req)}
	if !a.budgets[class].tryAcquire(g.n) {
		a.metrics.Add(obs.AdmRejectsRead+obs.Counter(class), 1)
		return grant{}, retryAfter[class], false
	}
	return g, 0, true
}

// release returns a grant's tokens. Grants of one class add, so a
// burst of admitted reads is released as one grant.
func (a *admission) release(g grant) {
	if g.n != 0 {
		a.budgets[g.class].used.Add(-g.n)
	}
}

// BudgetStats is the STATS view of one admission class.
type BudgetStats struct {
	Capacity int64  `json:"capacity"` // total tokens in the class budget
	InUse    int64  `json:"in_use"`   // tokens held by executing requests
	Rejected uint64 `json:"rejected"` // requests turned away since start
}

// stats snapshots every class for the STATS payload.
func (a *admission) stats() map[string]BudgetStats {
	out := make(map[string]BudgetStats, numAdmClasses)
	for c, name := range admClassNames {
		out[name] = BudgetStats{
			Capacity: a.budgets[c].capacity,
			InUse:    a.budgets[c].used.Load(),
			Rejected: uint64(a.metrics.Load(obs.AdmRejectsRead + obs.Counter(c))),
		}
	}
	return out
}
