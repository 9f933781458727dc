// Package repl is the log-shipping replication subsystem (DESIGN.md
// §13): followers that track a primary by pulling its WAL over the
// REPLICATE op class of the wire protocol, and epoch-fenced failover
// that promotes a follower without ever letting two primaries
// acknowledge the same write. A follower answers reads through the
// ordinary server path, so any client can read it.
//
// Topology. Replication is pull-based and per shard. A follower dials
// the primary's normal serving address and, for every shard, loops a
// FETCH carrying its cursor (the shard's applied LSN: durable in its
// WAL and readable): the primary answers with the raw WAL frames after
// that LSN, straight from its segment files, and the follower persists
// them verbatim and applies them through the engine-agnostic replay
// path — the two WAL timelines stay byte-identical. The FETCH also
// carries the follower's applied LSN, which doubles as the
// acknowledgement for lag tracking and synchronous replication. A
// caught-up FETCH is held at the primary for up to 50 ms, released
// early when a synchronous write waits for a record past the
// follower's cursor: that hold, not a sleep on the follower, is an
// idle follower's pacing. Each shard loop owns its own connection, so
// a held FETCH delays no other shard. When a follower's cursor has
// fallen below the primary's retained WAL, the primary redirects it to
// checkpoint shipping: a serialized tree of the shard's published
// version, labelled with the LSN it covers, is streamed in chunks and
// installed wholesale, and WAL shipping resumes from that LSN.
//
// Fencing. Every store persists a monotone epoch in its MANIFEST.
// Promotion picks a higher epoch and persists it before it takes
// effect; every replicated message carries the sender's epoch and is
// rejected (StatusFenced) on mismatch, and a primary that observes a
// higher rival epoch refuses every subsequent WAL append — so a
// deposed primary stops acknowledging writes the moment it hears from
// its successor's era, and a follower never applies records from a
// deposed primary's timeline.
//
// Synchronous mode (Config.Sync) installs a commit gate on the
// primary: a write is acknowledged only after some follower reports
// the write's LSN durably applied (or the gate times out and the
// client gets an error while the write stands locally — the same
// contract as a crash between commit and ack). The writing caller
// waits in the gate; the shard writer does not, and the FETCH that
// brings the ack runs on the goroutine of the follower's own connection
// to the primary, so the follower's round trip is the only wait. With one follower this
// is strict primary+1 durability; with several it is "at least the
// fastest follower", so promotion of the most-caught-up follower
// preserves every acknowledged write.
package repl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pbtree/internal/obs"
	"pbtree/internal/serve"
)

// DefaultSyncTimeout is what a zero Config.SyncTimeout selects.
const DefaultSyncTimeout = 2 * time.Second

const (
	defaultCallTimeout = 10 * time.Second

	// fetchHold is how long the primary holds a caught-up FETCH, and
	// how long a follower waits after a failed exchange before it
	// redials.
	fetchHold = 50 * time.Millisecond
)

// ErrSyncTimeout reports that a synchronously replicated write was not
// acknowledged by any follower in time. The write is durable and
// visible on the primary; the client must treat it like a crash after
// commit: unknown, retryable.
var ErrSyncTimeout = errors.New("repl: no follower acknowledged the write in time")

// Transport issues REPLICATE exchanges against a peer. The default
// implementation wraps a serve.Client; tests substitute in-process
// transports with deterministic fault injection.
type Transport interface {
	Do(req *serve.Request) (*serve.Response, error)
	Close() error
}

// clientTransport is the default Transport: a pipelined client
// connection.
type clientTransport struct{ c *serve.Client }

func (t *clientTransport) Do(req *serve.Request) (*serve.Response, error) { return t.c.Do(req) }
func (t *clientTransport) Close() error                                   { return t.c.Close() }

// dialTransport dials a peer's serving address.
func dialTransport(addr string) (Transport, error) {
	c, err := serve.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.Timeout = defaultCallTimeout
	return &clientTransport{c: c}, nil
}

// Config configures a replication Node.
type Config struct {
	// Store is the node's local store. Open it with
	// StoreConfig.Replica when Primary is set.
	Store *serve.Store

	// Primary is the primary's serving address. Empty means this node
	// is the primary (it serves FETCH; it runs no pull loops).
	Primary string

	// Sync enables synchronous replication on a primary: writes are
	// acknowledged only after a follower ack (see the package comment).
	Sync bool

	// SyncTimeout bounds how long a synchronous write waits for a
	// follower ack (default DefaultSyncTimeout).
	SyncTimeout time.Duration

	// Metrics receives the replication counters (may be nil).
	Metrics *obs.Metrics

	// Logf receives replication state transitions (may be nil).
	Logf func(format string, args ...any)

	// Dial overrides the transport used to reach the primary (tests).
	Dial func(addr string) (Transport, error)
}

// snapEntry is one cached checkpoint stream of a shard, regenerated
// when a follower's cursor has moved past it.
type snapEntry struct {
	lsn  uint64
	data []byte
}

// Node is one replication participant: it serves the REPLICATE op
// class for its store (wire it into serve.ServerConfig.Repl) and, on
// a follower, runs the per-shard pull loops against the primary.
type Node struct {
	cfg Config
	st  *serve.Store

	// Commit-gate state (primary): acked[shard] is the highest LSN any
	// follower has reported durably applied, wanted[shard] the highest
	// a synchronous write waits for. Held FETCHes wait on the same cond.
	gateMu   sync.Mutex
	gateCond *sync.Cond
	acked    []uint64
	wanted   []uint64

	// Checkpoint-stream cache, one entry per shard.
	snapMu sync.Mutex
	snaps  map[int]*snapEntry

	// primaryLSNs[shard] is the primary's last LSN from the most
	// recent FETCH answer — the follower's lag gauge.
	primaryLSNs []atomic.Uint64

	// lastInstalled[shard] is 1 + the LSN of the last checkpoint
	// stream installed (0 = never): it stops a follower from
	// re-installing the same stream every FETCH while the primary sits
	// at the stream's LSN (a seeded primary with no writes yet).
	lastInstalled []atomic.Uint64

	stopOnce sync.Once
	stop     chan struct{} // closed when the pull loops must stop
	closed   atomic.Bool   // Close ran: gate waits and held FETCHes end
	wg       sync.WaitGroup
}

// New builds a Node over the store. Call Start to install the sync
// gate (primary) or launch the pull loops (follower).
func New(cfg Config) (*Node, error) {
	if cfg.Store == nil {
		return nil, errors.New("repl: Config.Store is required")
	}
	if cfg.Primary != "" && !cfg.Store.IsReplica() {
		return nil, errors.New("repl: Config.Primary set but the store is not a replica (open it with StoreConfig.Replica)")
	}
	if cfg.Primary == "" && cfg.Store.IsReplica() {
		return nil, errors.New("repl: a replica store needs Config.Primary to follow")
	}
	if cfg.SyncTimeout <= 0 {
		cfg.SyncTimeout = DefaultSyncTimeout
	}
	if cfg.Dial == nil {
		cfg.Dial = dialTransport
	}
	n := &Node{
		cfg:           cfg,
		st:            cfg.Store,
		acked:         make([]uint64, cfg.Store.Shards()),
		wanted:        make([]uint64, cfg.Store.Shards()),
		snaps:         make(map[int]*snapEntry),
		primaryLSNs:   make([]atomic.Uint64, cfg.Store.Shards()),
		lastInstalled: make([]atomic.Uint64, cfg.Store.Shards()),
		stop:          make(chan struct{}),
	}
	n.gateCond = sync.NewCond(&n.gateMu)
	return n, nil
}

// Start activates the node: on a primary it installs the synchronous
// commit gate (when Config.Sync); on a follower it launches one pull
// loop per shard.
func (n *Node) Start() error {
	if n.cfg.Primary == "" {
		if n.cfg.Sync {
			n.st.SetCommitGate(n.syncGate)
		}
		return nil
	}
	for i := 0; i < n.st.Shards(); i++ {
		n.wg.Add(1)
		go n.shardLoop(i)
	}
	return nil
}

// Close stops the pull loops (each closes its own connection),
// removes the commit gate and releases gate waiters and held FETCHes.
func (n *Node) Close() error {
	if !n.closed.Swap(true) {
		n.stopLoops()
		n.st.SetCommitGate(nil)
		n.broadcast()
		n.wg.Wait()
	}
	return nil
}

func (n *Node) stopLoops() { n.stopOnce.Do(func() { close(n.stop) }) }

func (n *Node) stopped() bool {
	select {
	case <-n.stop:
		return true
	default:
		return false
	}
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// Role reports the node's current replication role.
func (n *Node) Role() serve.ReplRole {
	switch {
	case n.st.IsReplica():
		return serve.RoleReplica
	case n.st.Fenced():
		return serve.RoleFenced
	default:
		return serve.RolePrimary
	}
}

// ---------------------------------------------------------------------
// Serving side: the REPLICATE handler (serve.ReplHandler).

func okResp(rp *serve.ReplResp) *serve.Response {
	return &serve.Response{Status: serve.StatusOK, Repl: rp}
}

func errResp(format string, args ...any) *serve.Response {
	return &serve.Response{Status: serve.StatusErr, Err: fmt.Sprintf(format, args...)}
}

// HandleReplicate answers one REPLICATE request (PROTOCOL.md §9). It
// runs on the goroutine of the server connection it came on and never
// waits on a shard writer: everything it touches is lock-free, a pinned version,
// or under the node's own mutexes — where a caught-up FETCH is held
// for up to fetchHold.
func (n *Node) HandleReplicate(r *serve.ReplReq) *serve.Response {
	switch r.Kind {
	case serve.ReplStatus:
		// The probe: answers from any role, never fences, never
		// rejects — epoch 0 means "asking".
		return okResp(&serve.ReplResp{
			Kind:      serve.ReplStatus,
			Epoch:     n.st.Epoch(),
			Role:      n.Role(),
			ShardLSNs: n.st.AppliedLSNs(),
		})
	case serve.ReplFence:
		n.st.Fence(r.Epoch)
		return okResp(&serve.ReplResp{Kind: serve.ReplFence, Epoch: n.st.Epoch()})
	}

	// The data-moving kinds require an exact epoch match.
	have := n.st.Epoch()
	if r.Epoch != have || n.st.Fenced() {
		if r.Epoch > have {
			// A peer from a later era announced itself: fence before
			// rejecting, so no local write can be acknowledged after
			// this point either.
			n.st.Fence(r.Epoch)
		}
		high := have
		if fb := n.st.FencedBy(); fb > high {
			high = fb
		}
		if r.Epoch > high {
			high = r.Epoch
		}
		n.cfg.Metrics.Add(obs.ReplFencedRejects, 1)
		return &serve.Response{Status: serve.StatusFenced, FencedEpoch: high}
	}

	switch r.Kind {
	case serve.ReplFetch:
		return n.handleFetch(r)
	case serve.ReplSnapFetch:
		return n.handleSnapFetch(r)
	}
	return errResp("repl: unknown REPLICATE kind %d", uint8(r.Kind))
}

// budget clamps a request's byte budget to the wire's.
func (n *Node) budget(max uint32) int {
	b := int(max)
	if b <= 0 || b > serve.MaxReplBytes {
		b = serve.MaxReplBytes
	}
	return b
}

// handleFetch records the follower's ack and answers its FETCH. An
// answer that would not move the follower past its cursor is held
// first: until a synchronous write waits for a later LSN (syncGate),
// fetchHold passes or the node closes. Commits alone do not release
// it — every FETCH re-reads the shard's WAL segment.
func (n *Node) handleFetch(r *serve.ReplReq) *serve.Response {
	shard := int(r.Shard)
	if shard >= n.st.Shards() {
		return errResp("repl: shard %d out of range (%d shards)", shard, n.st.Shards())
	}
	n.recordAck(shard, r.Applied)
	resp, caughtUp := n.fetch(shard, r)
	if caughtUp {
		n.gateMu.Lock()
		n.await(fetchHold, func() bool { return n.wanted[shard] > r.After })
		n.gateMu.Unlock()
		resp, _ = n.fetch(shard, r)
	}
	return resp
}

// fetch serves WAL frames after the follower's cursor, or redirects to
// checkpoint shipping when the cursor predates the retained WAL, and
// reports whether the answer leaves the follower where it is.
func (n *Node) fetch(shard int, r *serve.ReplReq) (*serve.Response, bool) {
	frames, count, err := n.st.WALTail(shard, r.After, n.budget(r.Max))
	var retired serve.WALRetiredError
	if errors.As(err, &retired) {
		ent, serr := n.snapshotFor(shard, r.After)
		if serr != nil {
			return errResp("repl: shard %d checkpoint: %v", shard, serr), false
		}
		return okResp(&serve.ReplResp{
			Kind:     serve.ReplSnap,
			Epoch:    n.st.Epoch(),
			SnapLSN:  ent.lsn,
			SnapSize: uint64(len(ent.data)),
		}), ent.lsn <= r.After
	}
	if err != nil {
		return errResp("repl: shard %d WAL tail: %v", shard, err), false
	}
	n.cfg.Metrics.Add(obs.ReplShippedRecords, int64(count))
	n.cfg.Metrics.Add(obs.ReplShippedBytes, int64(len(frames)))
	return okResp(&serve.ReplResp{
		Kind:       serve.ReplFetch,
		Epoch:      n.st.Epoch(),
		PrimaryLSN: n.st.ReplicaCursor(shard),
		Count:      uint32(count),
		Records:    frames,
	}), count == 0
}

// handleSnapFetch serves one chunk of a shard checkpoint stream.
func (n *Node) handleSnapFetch(r *serve.ReplReq) *serve.Response {
	shard := int(r.Shard)
	if shard >= n.st.Shards() {
		return errResp("repl: shard %d out of range (%d shards)", shard, n.st.Shards())
	}
	ent, err := n.snapshotAt(shard, r.SnapLSN)
	if err != nil {
		return errResp("repl: shard %d checkpoint: %v", shard, err)
	}
	size := uint64(len(ent.data))
	off := r.Offset
	if ent.lsn != r.SnapLSN || off > size {
		// The requested stream is gone (regenerated) or the offset is
		// nonsense: answer with the current stream's header at offset
		// 0 and let the follower restart its accumulation.
		off = 0
	}
	end := off + uint64(n.budget(r.Max))
	if end > size {
		end = size
	}
	done := end == size
	if done {
		n.cfg.Metrics.Add(obs.ReplSnapshotsShipped, 1)
	}
	return okResp(&serve.ReplResp{
		Kind:     serve.ReplSnap,
		Epoch:    n.st.Epoch(),
		SnapLSN:  ent.lsn,
		SnapSize: size,
		Offset:   off,
		Done:     done,
		Chunk:    ent.data[off:end],
	})
}

// snapshotFor returns a cached checkpoint stream that advances a
// follower past `after`, regenerating when the cache can't.
func (n *Node) snapshotFor(shard int, after uint64) (*snapEntry, error) {
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	if ent := n.snaps[shard]; ent != nil && ent.lsn > after {
		return ent, nil
	}
	return n.regenSnapshotLocked(shard)
}

// snapshotAt returns the cached checkpoint stream covering snapLSN
// (any, when snapLSN is 0), regenerating a fresh one on a miss.
func (n *Node) snapshotAt(shard int, snapLSN uint64) (*snapEntry, error) {
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	if ent := n.snaps[shard]; ent != nil && (snapLSN == 0 || ent.lsn == snapLSN) {
		return ent, nil
	}
	return n.regenSnapshotLocked(shard)
}

func (n *Node) regenSnapshotLocked(shard int) (*snapEntry, error) {
	lsn, data, err := n.st.SnapshotShard(shard)
	if err != nil {
		return nil, err
	}
	ent := &snapEntry{lsn: lsn, data: data}
	n.snaps[shard] = ent
	n.logf("repl: shard %d checkpoint stream regenerated at LSN %d (%d bytes)", shard, lsn, len(data))
	return ent, nil
}

// recordAck folds one follower's applied LSN into the gate state.
func (n *Node) recordAck(shard int, applied uint64) {
	if shard >= len(n.acked) {
		return
	}
	n.gateMu.Lock()
	if applied > n.acked[shard] {
		n.acked[shard] = applied
		n.gateCond.Broadcast()
	}
	n.gateMu.Unlock()
}

// syncGate is the synchronous-replication commit gate
// (serve.Store.SetCommitGate): the writing caller waits in it until
// some follower reports the write's LSN durably applied. Raising the
// shard's wanted LSN releases a held FETCH to ship the write.
func (n *Node) syncGate(shard int, lsn uint64) error {
	n.gateMu.Lock()
	defer n.gateMu.Unlock()
	if lsn > n.wanted[shard] {
		n.wanted[shard] = lsn
		n.gateCond.Broadcast()
	}
	if n.await(n.cfg.SyncTimeout, func() bool { return n.acked[shard] >= lsn }) {
		return nil
	}
	if n.closed.Load() {
		return fmt.Errorf("repl: shard %d LSN %d: node closed: %w", shard, lsn, ErrSyncTimeout)
	}
	return fmt.Errorf("repl: shard %d LSN %d unacknowledged after %v: %w",
		shard, lsn, n.cfg.SyncTimeout, ErrSyncTimeout)
}

// await waits on the gate's cond until ok holds, d passes or the node
// closes, and reports whether ok held. The caller holds gateMu.
func (n *Node) await(d time.Duration, ok func() bool) bool {
	deadline := time.Now().Add(d)
	wake := time.AfterFunc(d, n.broadcast)
	defer wake.Stop()
	for !ok() {
		if n.closed.Load() || !time.Now().Before(deadline) {
			return false
		}
		n.gateCond.Wait()
	}
	return true
}

// broadcast wakes every gate waiter and held FETCH to recheck.
func (n *Node) broadcast() {
	n.gateMu.Lock()
	n.gateCond.Broadcast()
	n.gateMu.Unlock()
}

// ---------------------------------------------------------------------
// Follower side: the pull loops.

// shardLoop pulls one shard from the primary, over a connection of
// its own, until the node stops or is promoted. Exchanges run back to
// back: the primary holds a caught-up FETCH. A failed exchange drops
// the connection, and the loop redials after fetchHold.
func (n *Node) shardLoop(shard int) {
	defer n.wg.Done()
	var tr Transport
	for !n.stopped() && n.st.IsReplica() {
		var err error
		if tr == nil {
			tr, err = n.cfg.Dial(n.cfg.Primary)
		}
		if err == nil {
			err = n.syncShardOnce(shard, tr)
		}
		if err != nil {
			n.logf("repl: shard %d: %v", shard, err)
			if tr != nil {
				tr.Close()
				tr = nil
			}
			select {
			case <-n.stop:
			case <-time.After(fetchHold):
			}
		}
	}
	if tr != nil {
		tr.Close()
	}
}

// replPayload centralizes response status and epoch handling: it
// returns the payload to act on, or (nil, nil) after adopting a newer
// epoch — the caller simply retries under the new one.
func (n *Node) replPayload(resp *serve.Response, epoch uint64) (*serve.ReplResp, error) {
	adopt := func(e uint64) (*serve.ReplResp, error) {
		if err := n.st.AdoptEpoch(e); err != nil {
			return nil, err
		}
		n.logf("repl: adopted epoch %d", e)
		return nil, nil
	}
	switch resp.Status {
	case serve.StatusOK:
	case serve.StatusFenced:
		if resp.FencedEpoch > epoch {
			return adopt(resp.FencedEpoch)
		}
		return nil, fmt.Errorf("repl: primary rejected epoch %d as stale (its view: %d)", epoch, resp.FencedEpoch)
	default:
		return nil, fmt.Errorf("repl: primary: %s", resp.Err)
	}
	rp := resp.Repl
	if rp == nil {
		return nil, errors.New("repl: OK response without a REPLICATE payload")
	}
	if rp.Epoch != epoch {
		if rp.Epoch > epoch {
			return adopt(rp.Epoch)
		}
		// Never apply data from a lower era: the sender is a deposed
		// primary that has not noticed yet.
		return nil, fmt.Errorf("repl: primary epoch %d below ours %d (deposed primary?)", rp.Epoch, epoch)
	}
	return rp, nil
}

// syncShardOnce performs one FETCH round trip and applies its result.
func (n *Node) syncShardOnce(shard int, tr Transport) error {
	cursor := n.st.ReplicaCursor(shard)
	epoch := n.st.Epoch()
	resp, err := tr.Do(&serve.Request{Op: serve.OpReplicate, Repl: &serve.ReplReq{
		Kind:    serve.ReplFetch,
		Epoch:   epoch,
		Shard:   uint32(shard),
		After:   cursor,
		Applied: cursor,
		Max:     serve.MaxReplBytes,
	}})
	if err != nil {
		return err
	}
	rp, err := n.replPayload(resp, epoch)
	if rp == nil {
		return err // nil after an adopted epoch: refetch under it
	}
	switch rp.Kind {
	case serve.ReplFetch:
		n.primaryLSNs[shard].Store(rp.PrimaryLSN)
		if rp.Count == 0 {
			return nil // caught up; the primary held the FETCH
		}
		if err := n.st.ReplicaApply(shard, epoch, cursor+1, rp.Records); err != nil {
			var gap serve.CursorGapError
			if errors.As(err, &gap) {
				return nil // cursor moved underneath; refetch from it
			}
			return err
		}
		n.cfg.Metrics.Add(obs.ReplAppliedRecords, int64(rp.Count))
		return nil
	case serve.ReplSnap:
		// Cursor retired: switch to checkpoint shipping. A stream
		// already installed is skipped, and the primary held the FETCH
		// that offered it again.
		return n.snapshotSync(shard, tr, rp)
	}
	return fmt.Errorf("repl: unexpected REPLICATE answer kind %d", uint8(rp.Kind))
}

// snapshotSync accumulates a checkpoint stream chunk by chunk and
// installs it, restarting cleanly if the primary regenerates the
// stream mid-transfer.
func (n *Node) snapshotSync(shard int, tr Transport, first *serve.ReplResp) error {
	snapLSN, size := first.SnapLSN, first.SnapSize
	if li := n.lastInstalled[shard].Load(); li > 0 && snapLSN <= li-1 {
		return nil // this stream (or an older one) is already installed
	}
	n.logf("repl: shard %d resyncing from checkpoint at LSN %d (%d bytes)", shard, snapLSN, size)
	buf := make([]byte, 0, size)
	for {
		if n.stopped() || !n.st.IsReplica() {
			return nil
		}
		epoch := n.st.Epoch()
		resp, err := tr.Do(&serve.Request{Op: serve.OpReplicate, Repl: &serve.ReplReq{
			Kind:    serve.ReplSnapFetch,
			Epoch:   epoch,
			Shard:   uint32(shard),
			SnapLSN: snapLSN,
			Offset:  uint64(len(buf)),
			Max:     serve.MaxReplBytes,
		}})
		if err != nil {
			return err
		}
		rp, err := n.replPayload(resp, epoch)
		if err != nil {
			return err
		}
		if rp == nil {
			continue // epoch adopted; refetch the chunk under it
		}
		if rp.SnapLSN != snapLSN {
			n.logf("repl: shard %d checkpoint stream restarted at LSN %d", shard, rp.SnapLSN)
			snapLSN, size = rp.SnapLSN, rp.SnapSize
			buf = buf[:0]
			if rp.Offset != 0 {
				continue
			}
		}
		if rp.Offset != uint64(len(buf)) {
			return fmt.Errorf("repl: shard %d checkpoint chunk at offset %d, want %d", shard, rp.Offset, len(buf))
		}
		buf = append(buf, rp.Chunk...)
		if rp.Done {
			if err := n.st.ReplicaInstall(shard, epoch, snapLSN, buf); err != nil {
				return err
			}
			n.lastInstalled[shard].Store(snapLSN + 1)
			n.cfg.Metrics.Add(obs.ReplSnapshotsInstalled, 1)
			n.logf("repl: shard %d installed checkpoint at LSN %d", shard, snapLSN)
			return nil
		}
		if len(rp.Chunk) == 0 {
			return fmt.Errorf("repl: shard %d: empty non-final checkpoint chunk at offset %d of %d", shard, len(buf), size)
		}
	}
}

// ---------------------------------------------------------------------
// Failover.

// Promote turns this follower into the primary under newEpoch (0
// picks current+1). The epoch is persisted before it takes effect;
// the pull loops stop; the synchronous commit gate is installed when
// Config.Sync; and the deposed primary is told (best effort — it is
// fenced by epoch checks even if the message never arrives).
func (n *Node) Promote(newEpoch uint64) error {
	if newEpoch == 0 {
		newEpoch = n.st.Epoch() + 1
	}
	if err := n.st.Promote(newEpoch); err != nil {
		return err
	}
	n.stopLoops()
	if n.cfg.Sync {
		n.st.SetCommitGate(n.syncGate)
	}
	if n.cfg.Primary != "" {
		go n.fenceOldPrimary(newEpoch)
	}
	n.logf("repl: promoted to primary at epoch %d", newEpoch)
	return nil
}

// fenceOldPrimary sends the deposed primary a FENCE so it stops
// acknowledging writes immediately instead of at its next REPLICATE
// contact. Best effort: a partition that eats it does not weaken the
// epoch guarantee, only widens the deposed primary's unacknowledged
// window.
func (n *Node) fenceOldPrimary(epoch uint64) {
	tr, err := n.cfg.Dial(n.cfg.Primary)
	if err == nil {
		_, err = tr.Do(&serve.Request{Op: serve.OpReplicate, Repl: &serve.ReplReq{
			Kind:  serve.ReplFence,
			Epoch: epoch,
		}})
		tr.Close()
	}
	if err != nil {
		n.logf("repl: fencing old primary: %v", err)
	}
}
