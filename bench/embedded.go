package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pbtree"
)

// embeddedCaller drives an in-process store from one goroutine and
// checks every answer.
type embeddedCaller struct {
	st    *pbtree.Store
	gen   *opGen
	model *ackModel
	nkeys int
	look  []pbtree.Lookup

	attempted, wrong, failed int64
	firstErr                 string
}

func (c *embeddedCaller) bad(format string, args ...any) {
	c.wrong++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, args...)
	}
}

// writeFailed counts a write the store refused; its keys leave the
// model's checked set.
func (c *embeddedCaller) writeFailed(what string, err error, keys []pbtree.Key) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = what + ": " + err.Error()
	}
	c.model.fail(keys)
}

// getBlock runs blockOps Gets of preloaded keys and returns the mean
// microseconds per Get.
func (c *embeddedCaller) getBlock() float64 {
	t0 := time.Now()
	for i := 0; i < blockOps; i++ {
		k := keyOf(c.gen.keys.next())
		tid, ok := c.st.Get(k)
		if msg := checkPreloaded(k, tid, ok); msg != "" {
			c.bad("%s", msg)
		}
	}
	c.attempted += blockOps
	return float64(time.Since(t0)) / 1e3 / blockOps
}

// one runs one non-Get operation and returns its microseconds.
func (c *embeddedCaller) one(o op) float64 {
	c.attempted++
	t0 := time.Now()
	switch o.kind {
	case opMGet:
		if cap(c.look) < len(o.keys) {
			c.look = make([]pbtree.Lookup, len(o.keys))
		}
		out := c.look[:len(o.keys)]
		c.st.MGet(o.keys, out)
		d := time.Since(t0)
		for i, k := range o.keys {
			if msg := checkPreloaded(k, out[i].TID, out[i].Found); msg != "" {
				c.bad("%s", msg)
			}
		}
		return float64(d) / 1e3
	case opScan:
		rows := c.st.Scan(o.start, pbtree.MaxKey, o.n)
		d := time.Since(t0)
		if msg := checkRows(rows, o.start, o.n, c.nkeys, false); msg != "" {
			c.bad("%s", msg)
		}
		return float64(d) / 1e3
	case opPut:
		var err error
		if len(o.pairs) == 1 {
			err = c.st.Put(o.pairs[0].Key, o.pairs[0].TID)
		} else {
			err = c.st.PutBatch(o.pairs)
		}
		d := time.Since(t0)
		if err != nil {
			c.writeFailed("put", err, pairKeys(o.pairs))
		} else {
			c.model.ackPut(o.pairs)
		}
		return float64(d) / 1e3
	case opDel:
		err := c.st.Delete(o.keys[0])
		d := time.Since(t0)
		if err != nil {
			c.writeFailed("delete", err, o.keys)
		} else {
			c.model.ackDel(o.keys[0])
		}
		return float64(d) / 1e3
	}
	c.bad("op %s is not an in-process operation", opNames[o.kind])
	return 0
}

// mix runs the workload's mix for dur. A drawn Get becomes a block of
// blockOps Gets (one sample, the block's mean); Get's share of the
// draws is cut by the same factor so the op shares stay as defined.
func (c *embeddedCaller) mix(w *workload, dur time.Duration) (samples []float64, ops int64) {
	var cum []float64
	total := 0.0
	for _, m := range w.Mix {
		share := m.Pct
		if m.kind == opGet {
			share /= blockOps
		}
		total += share
		cum = append(cum, total)
	}
	start := c.attempted
	for end := time.Now().Add(dur); time.Now().Before(end); {
		if m := w.Mix[pick(cum, c.gen.keys.r)]; m.kind == opGet {
			samples = append(samples, c.getBlock())
		} else {
			samples = append(samples, c.one(c.gen.make(m)))
		}
	}
	return samples, c.attempted - start
}

// verifyModel reads every acknowledged write back.
func (c *embeddedCaller) verifyModel() (checked int64) {
	keys, want := c.model.expected()
	out := make([]pbtree.Lookup, len(keys))
	c.st.MGet(keys, out)
	for i, l := range out {
		if w := want[i]; (w == 0 && l.Found) || (w != 0 && (!l.Found || l.TID != w)) {
			c.bad("acknowledged write of key %d reads back tid %d found %v, want %d", keys[i], l.TID, l.Found, w)
		}
	}
	return int64(len(keys))
}

// embeddedCycles is how many alternating seq and mix slices a run has:
// enough that the best quarter of them (quietMean) is five slices.
const embeddedCycles = 20

// openEmbedded is the set-up of the embedded workload: generate the
// pairs, open the store with its zero-value configuration on two
// shards, wait until every shard serves.
func openEmbedded(w *workload) (*pbtree.Store, time.Duration, error) {
	t0 := time.Now()
	st, err := pbtree.OpenStore(pbtree.StoreConfig{Shards: 2, Backend: w.Backend}, sortedPairs(w.Keys))
	if err != nil {
		return nil, 0, err
	}
	if err := st.WaitReady(); err != nil {
		st.Close()
		return nil, 0, err
	}
	return st, time.Since(t0), nil
}

// runEmbedded is the embedded workload: the store in this process, one
// caller goroutine, no wire.
func runEmbedded(e *env, w *workload) (*result, error) {
	res := newResult(w, false, e.host)
	hp, _, _ := loadShape()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(hp))
	scale := e.seconds / w.Phases.total()
	phase := func(s float64) time.Duration { return time.Duration(s * scale * float64(time.Second)) }

	var st *pbtree.Store
	var setups []float64
	for rep := 0; rep < w.Reps; rep++ {
		if st != nil {
			st.Close()
			st = nil
		}
		runtime.GC()
		var took time.Duration
		var err error
		if st, took, err = openEmbedded(w); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took.Seconds())
	}
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	res.combine("setup_s", setups)

	model := newAckModel(0, w.Keys)
	c := &embeddedCaller{st: st, model: model, nkeys: w.Keys,
		gen: newOpGen(w, rand.New(rand.NewSource(e.seed)), model)}
	c.mix(w, phase(w.Phases.Warm)) // warm-up, discarded

	// The seq and mix phases alternate in slices, so each samples the
	// whole run; every metric is taken per slice (latencies as the
	// slice's median) and the slices are combined by quietMean.
	var samples, sliceSeq, sliceLat, sliceOps, sliceCPU []float64
	for cycle := 0; cycle < embeddedCycles; cycle++ {
		var seq []float64
		for end := time.Now().Add(phase(w.Phases.Seq) / embeddedCycles); time.Now().Before(end); {
			seq = append(seq, c.getBlock())
		}
		sliceSeq = append(sliceSeq, median(seq))
		res.Samples["seq_p50_us"] += len(seq)
		cpu0, t0 := selfCPU(), time.Now()
		lat, ops := c.mix(w, phase(w.Phases.Mix)/embeddedCycles)
		cpu, wall := selfCPU()-cpu0, time.Since(t0)
		samples = append(samples, lat...)
		sliceLat = append(sliceLat, median(lat))
		sliceOps = append(sliceOps, float64(ops)/wall.Seconds())
		sliceCPU = append(sliceCPU, float64(cpu.Microseconds())/float64(max(ops, 1)))
	}
	rss, err := procMB(selfPID, "VmHWM")
	if err != nil {
		return nil, err
	}
	res.Samples["lat_p50_us"] = len(samples)
	res.combine("seq_p50_us", sliceSeq)
	res.combine("lat_p50_us", sliceLat)
	res.combine("ops_per_s", sliceOps)
	res.combine("cpu_us_per_op", sliceCPU)
	res.p99("lat_p99_us", samples)
	res.set("peak_rss_mb", "MB", rss)

	res.Detail["verified_keys"] = float64(c.verifyModel())
	res.Attempted, res.Failed = c.attempted, c.failed+c.wrong
	if c.wrong > 0 {
		res.incorrect("%d wrong answers (first: %s)", c.wrong, c.firstErr)
	} else if c.failed > 0 {
		res.note("%d operations failed (first: %s)", c.failed, c.firstErr)
	}
	st.Close()
	st = nil // release the store before the sim probe allocates its trees
	if err := addSimSpeedups(res, w, e.seed); err != nil {
		return nil, err
	}
	return res, nil
}
