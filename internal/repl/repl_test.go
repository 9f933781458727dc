package repl

// The deterministic replication harness (ISSUE satellite 3): primary
// and follower stores over storage.MemFS, wired through an in-process
// Transport with a storage.FaultPlan injecting dropped and delayed
// shipping. No goroutine sleeps stand in for correctness — every test
// converges on observable state (cursors, dumps, WAL bytes).

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbtree/internal/core"
	"pbtree/internal/lsm"
	"pbtree/internal/obs"
	"pbtree/internal/serve"
	"pbtree/internal/storage"
)

var testBackends = []string{serve.BackendPBTree, serve.BackendLSM}

// tinyLSM forces flush/compaction activity with a handful of keys so
// the LSM follower exercises its full apply path.
var tinyLSM = lsm.Config{FlushKeys: 4, MaxRuns: 2}

// testNode bundles one replication participant: its MemFS, store and
// node.
type testNode struct {
	fs   *storage.MemFS
	st   *serve.Store
	node *Node
}

func (tn *testNode) close() {
	if tn.node != nil {
		tn.node.Close()
	}
	if tn.st != nil {
		tn.st.Close()
	}
}

// storeCfg is the shared store shape: two shards so per-shard loops
// and cursors are exercised, a small checkpoint interval with no WAL
// retention so cursor-0 followers hit the checkpoint-shipping path.
func storeCfg(backendName string, fs *storage.MemFS, replica bool) serve.StoreConfig {
	return serve.StoreConfig{
		Shards:  2,
		Backend: backendName,
		LSM:     tinyLSM,
		Replica: replica,
		Durable: &serve.DurableConfig{
			FS:              fs,
			Fsync:           serve.FsyncAlways,
			CheckpointEvery: 8,
			WALRetain:       4,
		},
	}
}

func openStore(t *testing.T, backendName string, fs *storage.MemFS, replica bool, seed []core.Pair) *serve.Store {
	t.Helper()
	st, err := serve.Open(storeCfg(backendName, fs, replica), seed)
	if err != nil {
		t.Fatalf("open %s store (replica=%v): %v", backendName, replica, err)
	}
	if err := st.WaitReady(); err != nil {
		st.Close()
		t.Fatalf("%s store not ready: %v", backendName, err)
	}
	return st
}

// localTransport drives a handler function directly — the in-process
// stand-in for a client connection — applying a FaultPlan to
// every exchange.
type localTransport struct {
	h    func(*serve.ReplReq) *serve.Response
	plan *storage.FaultPlan
}

func (t *localTransport) Do(req *serve.Request) (*serve.Response, error) {
	if req.Op != serve.OpReplicate || req.Repl == nil {
		return nil, errors.New("localTransport: not a REPLICATE request")
	}
	if t.plan != nil {
		drop, delay := t.plan.Next()
		if delay > 0 {
			time.Sleep(delay)
		}
		if drop {
			return nil, storage.ErrDropped
		}
	}
	return t.h(req.Repl), nil
}

func (t *localTransport) Close() error { return nil }

// dialTo builds a Config.Dial returning a localTransport into the
// given handler under the given plan (plan may be nil).
func dialTo(h func(*serve.ReplReq) *serve.Response, plan *storage.FaultPlan) func(string) (Transport, error) {
	return func(string) (Transport, error) {
		return &localTransport{h: h, plan: plan}, nil
	}
}

// newPrimary opens a primary store (optionally seeded) and its node.
func newPrimary(t *testing.T, backendName string, seed []core.Pair, sync bool, syncTimeout time.Duration) *testNode {
	t.Helper()
	fs := storage.NewMemFS()
	st := openStore(t, backendName, fs, false, seed)
	node, err := New(Config{Store: st, Sync: sync, SyncTimeout: syncTimeout, Logf: t.Logf})
	if err != nil {
		st.Close()
		t.Fatalf("primary node: %v", err)
	}
	if err := node.Start(); err != nil {
		t.Fatalf("primary start: %v", err)
	}
	return &testNode{fs: fs, st: st, node: node}
}

// newFollower opens a follower store over fs and a node pulling from
// the primary node's handler through plan.
func newFollower(t *testing.T, backendName string, fs *storage.MemFS, primary *testNode, plan *storage.FaultPlan) *testNode {
	t.Helper()
	st := openStore(t, backendName, fs, true, nil)
	node, err := New(Config{
		Store:   st,
		Primary: "primary:test",
		Metrics: obs.NewMetrics(),
		Logf:    t.Logf,
		Dial:    dialTo(primary.node.HandleReplicate, plan),
	})
	if err != nil {
		st.Close()
		t.Fatalf("follower node: %v", err)
	}
	if err := node.Start(); err != nil {
		t.Fatalf("follower start: %v", err)
	}
	return &testNode{fs: fs, st: st, node: node}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// leakCheck fails the test unless, after every deferred teardown, the
// goroutine count comes back down to what it is now. Idle HTTP
// keep-alive connections are closed first; everything else gets a
// moment to exit before it is called a leak.
func leakCheck(t *testing.T) {
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		for wait := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
			if time.Now().After(wait) {
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines left, %d at the start:\n%s",
					runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
				return
			}
		}
	})
}

// dialClient opens an ordinary serving client, closed with the test.
func dialClient(t *testing.T, addr string) *serve.Client {
	t.Helper()
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	c.Timeout = 5 * time.Second
	t.Cleanup(func() { c.Close() })
	return c
}

// replStatus issues one REPLICATE STATUS request on a connection.
func replStatus(t *testing.T, c *serve.Client) *serve.ReplResp {
	t.Helper()
	resp, err := c.Do(&serve.Request{Op: serve.OpReplicate, Repl: &serve.ReplReq{Kind: serve.ReplStatus}})
	if err != nil || resp.Status != serve.StatusOK || resp.Repl == nil {
		t.Fatalf("STATUS: %+v err=%v", resp, err)
	}
	return resp.Repl
}

// caughtUp reports whether the follower's cursors match the primary's.
func caughtUp(p, f *serve.Store) bool {
	pl, fl := p.AppliedLSNs(), f.AppliedLSNs()
	for i := range pl {
		if fl[i] != pl[i] {
			return false
		}
	}
	return true
}

func sameDump(t *testing.T, p, f *serve.Store) {
	t.Helper()
	want, got := p.Dump(), f.Dump()
	if len(want) != len(got) {
		t.Fatalf("follower has %d pairs, primary %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("pair %d: follower %+v, primary %+v", i, got[i], want[i])
		}
	}
}

// seedPairs is a deterministic bootstrap set whose keys spread over
// both shards.
func seedPairs(n int) []core.Pair {
	ps := make([]core.Pair, n)
	for i := range ps {
		ps[i] = core.Pair{Key: core.Key(10 * (i + 1)), TID: core.TID(i + 1)}
	}
	return ps
}

// TestReplicationCatchUp covers the full follower lifecycle on both
// backends: install the seeded primary's LSN-0 checkpoint (the seed
// never appears in the WAL), then stream live writes, then converge.
func TestReplicationCatchUp(t *testing.T) {
	for _, backendName := range testBackends {
		t.Run(backendName, func(t *testing.T) {
			leakCheck(t)
			p := newPrimary(t, backendName, seedPairs(64), false, 0)
			defer p.close()

			f := newFollower(t, backendName, storage.NewMemFS(), p, nil)
			defer f.close()

			// Phase 1: the bootstrap seed arrives via checkpoint
			// shipping (cursor 0 with a non-empty LSN-0 state). Both
			// sides sit at LSN 0 here, so convergence is a content
			// property, not a cursor one.
			waitFor(t, 5*time.Second, "seed catch-up", func() bool {
				return f.st.Len() == p.st.Len() && caughtUp(p.st, f.st)
			})
			sameDump(t, p.st, f.st)
			// The seed must have arrived via checkpoint install; the
			// counter is bumped after the content becomes visible.
			waitFor(t, 5*time.Second, "the checkpoint install to be counted", func() bool {
				return f.node.cfg.Metrics.Load(obs.ReplSnapshotsInstalled) > 0
			})

			// Phase 2: live writes stream through the WAL path,
			// including deletes and overwrites.
			for i := 0; i < 200; i++ {
				k := core.Key(10*(i%64) + 1)
				if err := p.st.Put(k, core.TID(1000+i)); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
				if i%7 == 0 {
					if err := p.st.Delete(k); err != nil {
						t.Fatalf("delete %d: %v", i, err)
					}
				}
			}
			waitFor(t, 5*time.Second, "live catch-up", func() bool { return caughtUp(p.st, f.st) })
			sameDump(t, p.st, f.st)

			// The bulk round may converge entirely via checkpoint
			// resync when the follower falls past WAL retention on a
			// loaded machine. A converged follower fetching one fresh
			// record must use the WAL path, so trickle writes one at
			// a time to pin the record-shipping assertion.
			for i := 0; i < 5; i++ {
				if err := p.st.Put(core.Key(7), core.TID(2000+i)); err != nil {
					t.Fatalf("trickle put %d: %v", i, err)
				}
				waitFor(t, 5*time.Second, "trickle catch-up", func() bool { return caughtUp(p.st, f.st) })
			}
			sameDump(t, p.st, f.st)
			if got := f.node.cfg.Metrics.Load(obs.ReplAppliedRecords); got == 0 {
				t.Fatalf("live writes must arrive via WAL shipping; applied=%d", got)
			}

			// The roles and lag read correctly on both sides.
			if r := p.node.Role(); r != serve.RolePrimary {
				t.Fatalf("primary role = %v", r)
			}
			if r := f.node.Role(); r != serve.RoleReplica {
				t.Fatalf("follower role = %v", r)
			}
			for i, lag := range f.node.Lag() {
				if lag != 0 {
					t.Fatalf("shard %d lag %d after catch-up", i, lag)
				}
			}
		})
	}
}

// TestReplicationUnderFaults runs continuous writes while the fault
// plan drops every 3rd exchange and delays every 2nd — the follower
// must still converge, and the plan must have actually fired.
func TestReplicationUnderFaults(t *testing.T) {
	leakCheck(t)
	plan := &storage.FaultPlan{DropEvery: 3, DelayEvery: 2, Delay: time.Millisecond}
	p := newPrimary(t, serve.BackendPBTree, nil, false, 0)
	defer p.close()
	f := newFollower(t, serve.BackendPBTree, storage.NewMemFS(), p, plan)
	defer f.close()

	for i := 0; i < 300; i++ {
		if err := p.st.Put(core.Key(i+1), core.TID(i+1)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	waitFor(t, 15*time.Second, "convergence under faults", func() bool { return caughtUp(p.st, f.st) })
	sameDump(t, p.st, f.st)

	// A second round after convergence streams through the WAL-fetch
	// path (the first may have been covered by checkpoint shipping in
	// a handful of exchanges).
	for i := 300; i < 400; i++ {
		if err := p.st.Put(core.Key(i+1), core.TID(i+1)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	waitFor(t, 15*time.Second, "re-convergence under faults", func() bool { return caughtUp(p.st, f.st) })
	sameDump(t, p.st, f.st)
	if plan.Steps() < 10 {
		t.Fatalf("fault plan saw only %d exchanges; the faults never fired", plan.Steps())
	}
}

// TestFollowerRestartMidStream crashes the follower partway through
// catch-up (losing its unsynced writes) and restarts it over the
// crashed filesystem: the new incarnation must resume from its durable
// cursor and converge.
func TestFollowerRestartMidStream(t *testing.T) {
	leakCheck(t)
	p := newPrimary(t, serve.BackendPBTree, nil, false, 0)
	defer p.close()

	fs := storage.NewMemFS()
	f := newFollower(t, serve.BackendPBTree, fs, p, nil)

	for i := 0; i < 150; i++ {
		if err := p.st.Put(core.Key(i+1), core.TID(i+1)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Let the follower apply at least a few records, then cut the
	// power mid-stream.
	waitFor(t, 5*time.Second, "partial apply", func() bool {
		for _, lsn := range f.st.AppliedLSNs() {
			if lsn > 0 {
				return true
			}
		}
		return false
	})
	f.close()
	crashed := fs.CrashAt(fs.CrashPoints(), true)

	// More writes land while the follower is down.
	for i := 150; i < 200; i++ {
		if err := p.st.Put(core.Key(i+1), core.TID(i+1)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	f2 := newFollower(t, serve.BackendPBTree, crashed, p, nil)
	defer f2.close()
	for _, lsn := range f2.st.AppliedLSNs() {
		if lsn > 200 {
			t.Fatalf("recovered cursor %d beyond what the primary ever shipped", lsn)
		}
	}
	waitFor(t, 10*time.Second, "post-restart convergence", func() bool { return caughtUp(p.st, f2.st) })
	sameDump(t, p.st, f2.st)
}

// primaryWALBytes snapshots every WAL byte of every shard directory —
// the byte-granular fencing witness.
func primaryWALBytes(t *testing.T, fs *storage.MemFS) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	var walk func(dir string)
	walk = func(dir string) {
		names, err := fs.ReadDir(dir)
		if err != nil {
			return // not a directory at this level
		}
		for _, name := range names {
			p := name
			if dir != "" {
				p = dir + "/" + name
			}
			rd, err := fs.Open(p)
			if err != nil {
				walk(p)
				continue
			}
			data, rerr := io.ReadAll(rd)
			rd.Close()
			if rerr != nil {
				t.Fatalf("read %s: %v", p, rerr)
			}
			out[p] = data
		}
	}
	walk("")
	return out
}

// TestFencedPrimaryRejectsByteGranular promotes the follower and then
// verifies — byte by byte over the deposed primary's filesystem — that
// no post-fence write extends its WAL timeline.
func TestFencedPrimaryRejectsByteGranular(t *testing.T) {
	leakCheck(t)
	p := newPrimary(t, serve.BackendPBTree, nil, false, 0)
	defer p.close()
	f := newFollower(t, serve.BackendPBTree, storage.NewMemFS(), p, nil)
	defer f.close()

	for i := 0; i < 50; i++ {
		if err := p.st.Put(core.Key(i+1), core.TID(i+1)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	waitFor(t, 5*time.Second, "pre-failover catch-up", func() bool { return caughtUp(p.st, f.st) })

	// A follower is not promotable into accepting writes before
	// Promote — client writes still bounce.
	if err := f.st.Put(1, 1); !errors.Is(err, serve.ErrNotPrimary) {
		t.Fatalf("pre-promotion follower write: err=%v, want ErrNotPrimary", err)
	}

	if err := f.node.Promote(0); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if got := f.st.Epoch(); got != 2 {
		t.Fatalf("post-promotion epoch = %d, want 2", got)
	}
	// The promotion fences the old primary through the transport
	// (fenceOldPrimary); wait for the FENCE to land.
	waitFor(t, 5*time.Second, "old primary fenced", func() bool { return p.st.Fenced() })

	before := primaryWALBytes(t, p.fs)
	if len(before) == 0 {
		t.Fatal("no primary files captured; the witness is vacuous")
	}

	// Every write class on the deposed primary must be rejected...
	if err := p.st.Put(999, 999); !errors.Is(err, serve.ErrFenced) {
		t.Fatalf("fenced Put: err=%v, want ErrFenced", err)
	}
	if err := p.st.Delete(1); !errors.Is(err, serve.ErrFenced) {
		t.Fatalf("fenced Delete: err=%v, want ErrFenced", err)
	}
	if err := p.st.PutBatch([]core.Pair{{Key: 998, TID: 998}}); !errors.Is(err, serve.ErrFenced) {
		t.Fatalf("fenced PutBatch: err=%v, want ErrFenced", err)
	}
	if err := p.st.Compact(); !errors.Is(err, serve.ErrFenced) {
		t.Fatalf("fenced Compact: err=%v, want ErrFenced", err)
	}

	// ...and must have left no trace: the filesystem is byte-identical.
	after := primaryWALBytes(t, p.fs)
	if len(after) != len(before) {
		t.Fatalf("file count changed across fenced writes: %d -> %d", len(before), len(after))
	}
	for name, b := range before {
		a, ok := after[name]
		if !ok {
			t.Fatalf("file %s vanished across fenced writes", name)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("file %s changed across fenced writes (%d -> %d bytes)", name, len(b), len(a))
		}
	}

	// A stale-epoch FETCH against the new primary answers StatusFenced
	// carrying the winning epoch.
	resp := f.node.HandleReplicate(&serve.ReplReq{Kind: serve.ReplFetch, Epoch: 1, Shard: 0})
	if resp.Status != serve.StatusFenced {
		t.Fatalf("stale-epoch FETCH status = %d, want StatusFenced", resp.Status)
	}
	if resp.FencedEpoch != 2 {
		t.Fatalf("StatusFenced epoch = %d, want 2", resp.FencedEpoch)
	}

	// The new primary serves writes.
	if err := f.st.Put(777, 777); err != nil {
		t.Fatalf("new primary write: %v", err)
	}
}

// TestSyncPromotionNeverDualAcks is the -race failover exercise: a
// synchronous primary under write load, a follower promoted
// mid-traffic, and the invariant that no write is acknowledged by both
// eras — every key acked by either side must be readable on the new
// primary, except those acked by the old primary strictly before the
// promotion epoch existed (which the sync gate guarantees were
// follower-applied, hence also readable).
func TestSyncPromotionNeverDualAcks(t *testing.T) {
	leakCheck(t)
	p := newPrimary(t, serve.BackendPBTree, nil, true, 500*time.Millisecond)
	defer p.close()
	f := newFollower(t, serve.BackendPBTree, storage.NewMemFS(), p, nil)
	defer f.close()

	var mu sync.Mutex
	ackedOld := map[core.Key]bool{} // acked by the old primary
	lateAck := map[core.Key]bool{}  // acked by the old primary after promotion

	var promoted sync.WaitGroup
	promoted.Add(1)
	var promoteAt = 100
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			k := core.Key(i + 1)
			err := p.st.Put(k, core.TID(i+1))
			if i == promoteAt {
				promoted.Done() // writer reached the promotion point
			}
			if err != nil {
				continue // timed out or fenced: unacknowledged, no claim
			}
			mu.Lock()
			ackedOld[k] = true
			if f.st.Epoch() > p.st.Epoch() || !f.st.IsReplica() {
				lateAck[k] = true
			}
			mu.Unlock()
		}
	}()

	promoted.Wait()
	if err := f.node.Promote(0); err != nil {
		t.Fatalf("promote: %v", err)
	}
	wg.Wait()

	// The old primary must stop acking once fenced; any ack that
	// raced the promotion window must still be follower-covered. The
	// strong invariant: every acked key is readable on the new
	// primary.
	mu.Lock()
	defer mu.Unlock()
	if len(lateAck) > 0 {
		// An ack strictly after promotion would be a dual ack iff the
		// follower doesn't hold it; check below catches it.
		t.Logf("%d acks raced the promotion window", len(lateAck))
	}
	missing := 0
	for k := range ackedOld {
		if _, ok := f.st.Get(k); !ok {
			missing++
			t.Errorf("key %d acked by old primary but missing on new primary (dual ack)", k)
		}
	}
	if missing == 0 {
		t.Logf("%d acked keys all present on the new primary", len(ackedOld))
	}

	// Post-promotion, a fresh write on the old primary must never ack:
	// the follower stopped pulling, so in sync mode the gate times out
	// (or fencing rejects outright once the FENCE lands).
	if err := p.st.Put(100000, 1); err == nil {
		t.Fatal("old primary acknowledged a write after the follower was promoted")
	}
}

// TestSyncUnderPipelinedLoad drives a seeded synchronous primary over
// loopback with at least 64 writes in flight (two windows' worth at
// least), against a follower that starts at cursor 0. Every write must
// ack: the FETCH that brings the follower's ack is answered on its own
// connection's goroutine, not behind the writing connections waiting
// in the gate, and the gate holds the writing connection, not the
// shard writer. FETCHes stay few per acked
// write, and an idle follower is paced by the primary's held FETCH,
// not by a spin.
func TestSyncUnderPipelinedLoad(t *testing.T) {
	leakCheck(t)
	cfg := storeCfg(serve.BackendPBTree, storage.NewMemFS(), false)
	cfg.Durable.CheckpointEvery = 1024
	pst, err := serve.Open(cfg, seedPairs(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer pst.Close()
	if err := pst.WaitReady(); err != nil {
		t.Fatal(err)
	}
	pnode, err := New(Config{Store: pst, Sync: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := pnode.Start(); err != nil {
		t.Fatal(err)
	}
	defer pnode.Close()
	m := obs.NewMetrics()
	psrv := serve.NewServer(pst, serve.ServerConfig{Addr: "127.0.0.1:0", Metrics: m, Repl: pnode})
	if err := psrv.Start(); err != nil {
		t.Fatal(err)
	}
	defer psrv.Shutdown(time.Second)

	fst := openStore(t, serve.BackendPBTree, storage.NewMemFS(), true, nil)
	defer fst.Close()
	fnode, err := New(Config{Store: fst, Primary: psrv.Addr().String(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := fnode.Start(); err != nil {
		t.Fatal(err)
	}
	defer fnode.Close()

	window := int(dialClient(t, psrv.Addr().String()).Window())
	inflight := max(2*window, 64)
	clients := make([]*serve.Client, inflight/window)
	for i := range clients {
		clients[i] = dialClient(t, psrv.Addr().String())
	}
	const perWriter = 20
	var acked atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < inflight; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := clients[g%len(clients)]
			for i := 0; i < perWriter; i++ {
				k := core.Key(100_000 + g*perWriter + i)
				if err := c.Put(core.Pair{Key: k, TID: 1}); err != nil {
					t.Errorf("sync write of key %d: %v", k, err)
					return
				}
				acked.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	fetches := m.Load(obs.ReqReplicate)
	t.Logf("%d sync writes in flight acked %d times with %d REPLICATE requests", inflight, acked.Load(), fetches)
	if n := acked.Load(); fetches > 2*n {
		t.Fatalf("%d REPLICATE requests for %d acked sync writes, want at most 2 a write", fetches, n)
	}

	const idle = 500 * time.Millisecond
	time.Sleep(idle)
	most := int64(pst.Shards() * (int(idle/fetchHold) + 2))
	if got := m.Load(obs.ReqReplicate) - fetches; got > most {
		t.Fatalf("an idle follower sent %d REPLICATE requests in %v, want at most %d: caught-up FETCHes are not held", got, idle, most)
	}
}

// TestOverTheWire runs the whole stack over real TCP: two serve.Server
// instances with REPLICATE wired, the default dialed transport, an
// ordinary client reading the follower, REPLICATE STATUS on both
// nodes, and the admin endpoints.
func TestOverTheWire(t *testing.T) {
	leakCheck(t)
	// Primary server.
	pfs := storage.NewMemFS()
	pst := openStore(t, serve.BackendPBTree, pfs, false, seedPairs(32))
	defer pst.Close()
	pnode, err := New(Config{Store: pst, Metrics: obs.NewMetrics(), Logf: t.Logf})
	if err != nil {
		t.Fatalf("primary node: %v", err)
	}
	if err := pnode.Start(); err != nil {
		t.Fatalf("primary start: %v", err)
	}
	defer pnode.Close()
	psrv := serve.NewServer(pst, serve.ServerConfig{Addr: "127.0.0.1:0", Repl: pnode})
	if err := psrv.Start(); err != nil {
		t.Fatalf("primary server: %v", err)
	}
	defer psrv.Shutdown(time.Second)
	paddr := psrv.Addr().String()

	// Follower server, dialing the primary over TCP (the default
	// transport — this exercises the REPLICATE codec end to end).
	ffs := storage.NewMemFS()
	fst := openStore(t, serve.BackendPBTree, ffs, true, nil)
	defer fst.Close()
	fnode, err := New(Config{Store: fst, Primary: paddr, Metrics: obs.NewMetrics(), Logf: t.Logf})
	if err != nil {
		t.Fatalf("follower node: %v", err)
	}
	if err := fnode.Start(); err != nil {
		t.Fatalf("follower start: %v", err)
	}
	defer fnode.Close()
	fsrv := serve.NewServer(fst, serve.ServerConfig{Addr: "127.0.0.1:0", Repl: fnode})
	if err := fsrv.Start(); err != nil {
		t.Fatalf("follower server: %v", err)
	}
	defer fsrv.Shutdown(time.Second)
	faddr := fsrv.Addr().String()

	// Both sides sit at LSN 0 until the follower installs the seeded
	// primary's bootstrap checkpoints, so catch-up is the LSNs and the
	// contents agreeing.
	waitFor(t, 10*time.Second, "wire catch-up", func() bool { return caughtUp(pst, fst) && fst.Len() == pst.Len() })

	// A write through the primary's client reaches the follower, whose
	// own connection then answers GET, MGET and SCAN and refuses writes.
	pc := dialClient(t, paddr)
	fc := dialClient(t, faddr)
	if err := pc.Put(core.Pair{Key: 5, TID: 55}); err != nil {
		t.Fatalf("primary put: %v", err)
	}
	waitFor(t, 5*time.Second, "write read back from the follower", func() bool {
		tid, ok, err := fc.Get(5)
		return err == nil && ok && tid == 55
	})
	ls, err := fc.MGet([]core.Key{5, 999999})
	if err != nil || len(ls) != 2 || !ls[0].Found || ls[0].TID != 55 || ls[1].Found {
		t.Fatalf("follower mget: %+v err=%v", ls, err)
	}
	if ps, err := fc.Scan(0, core.Key(1<<31), 1000); err != nil || len(ps) != pst.Len() {
		t.Fatalf("follower scan: %d pairs (primary holds %d), err=%v", len(ps), pst.Len(), err)
	}
	if err := fc.Put(core.Pair{Key: 6, TID: 66}); err == nil {
		t.Fatal("follower accepted a client write")
	}

	// REPLICATE STATUS over TCP: each node reports its role at epoch
	// 1, and once caught up both report the same per-shard LSNs.
	waitFor(t, 5*time.Second, "STATUS LSNs to agree", func() bool {
		ps, fs := replStatus(t, pc), replStatus(t, fc)
		if ps.Role != serve.RolePrimary || fs.Role != serve.RoleReplica || ps.Epoch != 1 || fs.Epoch != 1 {
			t.Fatalf("STATUS: primary %v/%d, follower %v/%d, want primary/1 and replica/1", ps.Role, ps.Epoch, fs.Role, fs.Epoch)
		}
		if len(ps.ShardLSNs) != 2 || len(fs.ShardLSNs) != 2 {
			t.Fatalf("STATUS shard LSNs: primary %v, follower %v, want 2 each", ps.ShardLSNs, fs.ShardLSNs)
		}
		return ps.ShardLSNs[0] == fs.ShardLSNs[0] && ps.ShardLSNs[1] == fs.ShardLSNs[1]
	})

	// Admin plane on the follower: /replz reflects the replica role,
	// POST /promote fails over, and the lag gauges render.
	mux := serve.NewAdminMux(fsrv, fst, fnode.WriteMetrics)
	fnode.Mount(mux)
	admin := httptest.NewServer(mux)
	defer admin.Close()

	var status Status
	getJSON := func(path string) {
		t.Helper()
		resp, err := http.Get(admin.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	getJSON("/replz")
	if status.Role != "replica" || status.Epoch != 1 {
		t.Fatalf("/replz: role=%q epoch=%d, want replica/1", status.Role, status.Epoch)
	}

	var metrics bytes.Buffer
	resp, err := http.Get(admin.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	io.Copy(&metrics, resp.Body)
	resp.Body.Close()
	for _, want := range []string{"pbtree_repl_epoch", "pbtree_repl_role", "pbtree_repl_lag_records"} {
		if !bytes.Contains(metrics.Bytes(), []byte(want)) {
			t.Fatalf("/metrics missing %s:\n%s", want, metrics.String())
		}
	}

	preq, err := http.Post(admin.URL+"/promote?epoch=7", "", nil)
	if err != nil {
		t.Fatalf("POST /promote: %v", err)
	}
	defer preq.Body.Close()
	if preq.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(preq.Body)
		t.Fatalf("POST /promote: %s: %s", preq.Status, body)
	}
	if err := json.NewDecoder(preq.Body).Decode(&status); err != nil {
		t.Fatalf("POST /promote: decode: %v", err)
	}
	if status.Role != "primary" || status.Epoch != 7 {
		t.Fatalf("post-promotion /replz: role=%q epoch=%d, want primary/7", status.Role, status.Epoch)
	}

	// The deposed primary learns its fencing over the wire.
	waitFor(t, 5*time.Second, "old primary fenced over the wire", func() bool { return pst.Fenced() })
	if err := pst.Put(12345, 1); !errors.Is(err, serve.ErrFenced) {
		t.Fatalf("fenced old primary accepted a write over the wire path: %v", err)
	}

	// The promoted store serves writes directly.
	if err := fst.Put(4242, 42); err != nil {
		t.Fatalf("promoted store write: %v", err)
	}
}

// TestStatusJSONShape pins the /replz document's field names — they
// are operator-facing API.
func TestStatusJSONShape(t *testing.T) {
	leakCheck(t)
	p := newPrimary(t, serve.BackendPBTree, seedPairs(4), false, 0)
	defer p.close()
	b, err := json.Marshal(p.node.Status())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"role", "epoch", "sync", "shards", "counters"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("Status JSON missing %q: %s", k, b)
		}
	}
	if m["role"] != "primary" {
		t.Fatalf("role = %v", m["role"])
	}
}
