package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pbtree"
)

// generatorLateLimitUS is the generator lateness (p99, microseconds)
// above which a run's latencies measure the generator, not the server.
const generatorLateLimitUS = 5000

// served is a running server child with the harness's connections to
// it, as set-up leaves them.
type served struct {
	srv   *child
	conns []*conn
	gens  []*opGen // one per connection, for the seq and open phases
	dir   string   // data directory ("" = not durable)
}

func (s *served) closeConns() {
	for _, c := range s.conns {
		c.cl.Close()
	}
}

// teardown stops the server hard and removes its data; used for the
// set-up repetitions that are only timed.
func (s *served) teardown() {
	s.closeConns()
	s.srv.kill()
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// specFor is the server invocation of a workload.
func (e *env) specFor(w *workload, dir string) serverSpec {
	_, sp, _ := loadShape()
	fsync := w.Fsync
	if fsync == "" {
		fsync = "always"
	}
	return serverSpec{
		bin: e.serverBin, keys: w.Keys, backend: w.Backend, dataDir: dir, fsync: fsync,
		procs: sp, logPath: filepath.Join(e.runDir, "server-"+w.Name+".log"),
	}
}

// connect dials the workload's connections to a ready server and
// builds their key streams.
func connect(srv *child, w *workload, models []*ackModel, seed int64) ([]*conn, []*opGen, error) {
	_, _, nconn := loadShape()
	var conns []*conn
	var gens []*opGen
	for i := 0; i < nconn; i++ {
		cl, err := pbtree.DialServer(srv.addr)
		if err != nil {
			for _, c := range conns {
				c.cl.Close()
			}
			return nil, nil, fmt.Errorf("dial connection %d: %w", i, err)
		}
		c := &conn{cl: cl, model: models[i], nkeys: w.Keys, exact: !w.writes()}
		conns = append(conns, c)
		gens = append(gens, newOpGen(w, rand.New(rand.NewSource(seed*7919+int64(i))), c.model))
	}
	return conns, gens, nil
}

// writes reports whether the workload's mix changes the store.
func (w *workload) writes() bool {
	for _, m := range w.Mix {
		if m.kind == opPut || m.kind == opDel {
			return true
		}
	}
	return false
}

// setUp is the timed set-up of a served workload: spawn the server,
// wait for the first verified GET, dial the connections, build the key
// streams.
func (e *env) setUp(w *workload, models []*ackModel) (*served, time.Duration, error) {
	s := &served{}
	if w.Durable {
		s.dir = filepath.Join(e.runDir, fmt.Sprintf("data-%s-%d", w.Name, e.nextDir()))
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, 0, err
		}
	}
	t0 := time.Now()
	srv, err := startServer(e.specFor(w, s.dir))
	if err != nil {
		return nil, 0, err
	}
	s.srv = srv
	probe, err := srv.dialReady(w.Keys, 90*time.Second)
	if err != nil {
		srv.kill()
		return nil, 0, err
	}
	probe.Close()
	if s.conns, s.gens, err = connect(srv, w, models, e.seed); err != nil {
		srv.kill()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

// newModels makes one write model per connection.
func newModels(w *workload) []*ackModel {
	_, _, nconn := loadShape()
	models := make([]*ackModel, nconn)
	for i := range models {
		models[i] = newAckModel(i, w.Keys)
	}
	return models
}

// runServed is a served workload, untraced. A run is several server
// lifetimes, each a fresh process that goes through every phase: timed
// set-up, a saturation burst (its ramp doubles as the warm-up), a slice
// of the seq phase, a slice of the open phase. Throughput, latency, CPU
// and memory differ more between server processes than within one, so
// every metric is taken per lifetime and the lifetimes are combined by
// quietMean.
// The last lifetime's writes are verified before it is shut down.
func runServed(e *env, w *workload) (*result, error) {
	res := newResult(w, false, e.host)
	hp, _, _ := loadShape()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(hp))
	scale := e.seconds / w.Phases.total()
	reps := float64(w.Reps)
	slice := func(s float64) time.Duration { return time.Duration(s * scale / reps * float64(time.Second)) }
	ramp, burst, seqLen, openLen := slice(w.Phases.Warm), slice(w.Phases.Sat), slice(w.Phases.Seq), slice(w.Phases.Open)
	primary, err := parseOp(w.Primary)
	if err != nil {
		return nil, err
	}

	var s *served
	defer func() {
		if s != nil {
			s.teardown()
		}
	}()
	per := map[string][]float64{} // one value per lifetime
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	for rep := 0; rep < w.Reps; rep++ {
		if s != nil {
			s.teardown()
		}
		var took time.Duration
		if s, took, err = e.setUp(w, newModels(w)); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		pid := s.srv.pid
		add("setup_s", took.Seconds())
		if rss, err := procMB(pid, "VmRSS"); err == nil {
			add("srv_rss_ready_mb", rss)
		}

		// sat: closed loop at full depth, the whole mix.
		sat := runSat(w, s.conns, e.seed+int64(rep), ramp+burst, numOps, nil)
		res.count(sat, "sat")
		add("ops_per_s", sat.throughput(ramp, ramp+burst))
		add("sat_p50_us", median(sat.all()))

		// seq: the primary op with nothing else outstanding.
		seq := runSeq(s.conns[0], s.gens[0], primary, seqLen)
		res.count(seq, "seq")
		add("seq_p50_us", median(seq.all()))
		res.Samples["seq_p50_us"] += len(seq.all())

		// open: the mix at the workload's fixed rate, timed from due times.
		srvCPU0, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		genCPU0, t0 := selfCPU(), time.Now()
		open := runOpen(s.conns, s.gens, w.Rate, openLen)
		wall := time.Since(t0)
		genCPU := selfCPU() - genCPU0
		srvCPU1, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		res.count(open, "open")
		lat := open.all()
		add("lat_p50_us", median(lat))
		res.Samples["lat_p50_us"] += len(lat)
		if v, ok := p99(lat); ok {
			add("lat_p99_us", v)
			res.Samples["lat_p99_us"] += len(lat)
		} else {
			res.note("lifetime %d: no p99 from %d samples, need %d", rep, len(lat), minP99Samples)
		}
		add("cpu_us_per_op", float64((srvCPU1-srvCPU0).Microseconds())/float64(max(open.completed(), 1)))
		for k, name := range opNames {
			if len(open.lat[k]) > 0 {
				add("open_p50_us_"+name, median(open.lat[k]))
			}
		}
		late, _ := p99(open.late)
		share := genCPU.Seconds() / (wall.Seconds() * float64(hp))
		add("gen_late_p99_us", late)
		add("gen_cpu_us_per_op", float64(genCPU.Microseconds())/float64(max(open.attempted, 1)))
		add("gen_cpu_share", share)
		add("open_achieved_ops_per_s", float64(open.completed())/wall.Seconds())

		rss, err := procMB(pid, "VmHWM")
		if err != nil {
			return nil, err
		}
		add("peak_rss_mb", rss)
	}

	// Like every other number of the run, the generator's verdict is on
	// the middle lifetimes.
	if late, share := midMean(per["gen_late_p99_us"]), midMean(per["gen_cpu_share"]); late > generatorLateLimitUS || share > 0.9 {
		res.GeneratorBound = true
		res.note("generator_bound: lateness p99 %.0f us, harness CPU %.0f%% of its share", late, 100*share)
	}

	listed := map[string]bool{}
	for _, m := range endToEnd {
		listed[m.Name] = true
	}
	for name, v := range per {
		switch {
		case !listed[name]:
			res.Series[name] = v
			res.Detail[name] = midMean(v)
		case len(v) == w.Reps:
			res.combine(name, v)
		}
	}

	if w.writes() {
		if err := e.verifyWrites(w, s, res); err != nil {
			return nil, err
		}
	}
	s.closeConns()
	s.srv.stop()
	if err := addSimSpeedups(res, w, e.seed); err != nil {
		return nil, err
	}
	return res, nil
}

// verifyWrites checks the whole model of acknowledged writes against
// the live server, then kills the server (SIGKILL), restarts it on the
// same directory and re-checks a sample. kill -9 keeps the operating
// system's cache, so this checks WAL replay, not power loss.
func (e *env) verifyWrites(w *workload, s *served, res *result) error {
	var keys []pbtree.Key
	var want []pbtree.TID
	for _, c := range s.conns {
		k, v := c.model.expected()
		checked, bad, err := c.verifyKeys(k, v)
		if err != nil {
			return err
		}
		res.Attempted += checked
		if bad > 0 {
			res.Failed += bad
			res.incorrect("verify: %d of %d acknowledged writes read back wrong", bad, checked)
		}
		keys, want = append(keys, k...), append(want, v...)
	}
	res.Detail["verified_keys"] = float64(len(keys))
	if !w.Durable {
		return nil
	}

	s.closeConns()
	s.srv.kill()
	t0 := time.Now()
	srv, err := startServer(e.specFor(w, s.dir))
	if err != nil {
		return err
	}
	s.srv = srv
	cl, err := srv.dialReady(w.Keys, 90*time.Second)
	if err != nil {
		return fmt.Errorf("restart after kill -9: %w", err)
	}
	res.Detail["recover_s"] = time.Since(t0).Seconds()
	s.conns = []*conn{{cl: cl, nkeys: w.Keys}}

	r := rand.New(rand.NewSource(e.seed))
	n := min(w.Recheck, len(keys))
	sk, sw := make([]pbtree.Key, n), make([]pbtree.TID, n)
	for i, j := range r.Perm(len(keys))[:n] {
		sk[i], sw[i] = keys[j], want[j]
	}
	checked, bad, err := s.conns[0].verifyKeys(sk, sw)
	if err != nil {
		return err
	}
	res.Attempted += checked
	if bad > 0 {
		res.Failed += bad
		res.incorrect("after kill -9 and restart: %d of %d sampled acknowledged writes read back wrong", bad, checked)
	}
	res.Detail["rechecked_keys"] = float64(checked)
	return nil
}
