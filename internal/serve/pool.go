package serve

// The worker pool (DESIGN.md §15). Requests that can block for
// milliseconds — PUT, DEL, the scans — leave their connection's read
// goroutine for one server-wide bounded pool, so
// execution concurrency is a constant, max(16, 4 x GOMAXPROCS)
// workers, instead of conns x window goroutines.
// Per-connection fairness comes from the window slots, and the pool
// queue is the explicit backpressure point: when every worker is busy
// and the queue is full, read loops block in submit and stop reading.

import (
	"sync"
	"time"

	"pbtree/internal/obs"
)

// poolTask is one decoded request on its way through the worker pool.
type poolTask struct {
	pc      *pconn    // owning connection: writer, cursor set, slot to release
	id      uint32    // v2 request ID
	req     *Request  // decoded request
	arrived time.Time // frame arrival, for deadline checks
	sp      *obs.Span // lifecycle span
}

// workerPool is the shared bounded executor.
type workerPool struct {
	tasks   chan poolTask
	wg      sync.WaitGroup
	metrics *obs.Metrics
}

// newWorkerPool starts size workers over a queue of 2 x size tasks —
// deep enough to keep workers fed across completions, shallow enough
// that backpressure reaches the read loops quickly.
func newWorkerPool(size int, metrics *obs.Metrics) *workerPool {
	p := &workerPool{
		tasks:   make(chan poolTask, 2*size),
		metrics: metrics,
	}
	p.wg.Add(size)
	for i := 0; i < size; i++ {
		go p.worker()
	}
	return p
}

// submit queues one task, blocking while the queue is full — that
// block is the backpressure that stops a connection's read loop from
// decoding further ahead.
func (p *workerPool) submit(t poolTask) {
	p.metrics.Add(obs.PoolQueue, 1)
	p.tasks <- t
}

// worker executes tasks until the pool closes. Completing a task may
// flush to the connection, which waits on its peer for at most
// writeStall; after a failed write later responses are dropped.
func (p *workerPool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		p.metrics.Add(obs.PoolQueue, -1)
		p.metrics.Add(obs.PoolBusy, 1)
		p.metrics.Add(obs.PoolTasks, 1)
		t.pc.complete(t.id, t.pc.s.handle(t.req, t.arrived, t.sp, t.pc.cs), t.sp)
		<-t.pc.slots
		p.metrics.Add(obs.PoolBusy, -1)
	}
}

// close stops the workers after all queued tasks finish. The server
// calls it only once every connection has drained, so no submit can
// race the close.
func (p *workerPool) close() {
	close(p.tasks)
	p.wg.Wait()
}
