package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"pbtree"
)

// The three simulated trees of the paper's headline comparison.
const (
	vBPlus = iota // B+-Tree, one-line nodes, no prefetching
	vP8           // p8B+-Tree: eight-line nodes, node prefetching
	vP8e          // p8eB+-Tree: p8B+ plus an external jump-pointer array
	numVariants
)

var variantNames = [numVariants]string{"B+", "p8B+", "p8eB+"}

// blockOps is how many sub-microsecond calls are timed as one sample
// (the block's mean), so the clock reads cost under 1% of what they
// time.
const blockOps = 16

// simTree is one tree on its own simulated memory hierarchy.
type simTree struct {
	h *pbtree.Hierarchy
	t *pbtree.Tree
}

// buildSimTrees bulkloads the three variants at fill 1.0, each on a
// fresh default hierarchy, and reports the host time of each bulkload.
func buildSimTrees(pairs []pbtree.Pair) (trees [numVariants]simTree, host [numVariants]time.Duration, err error) {
	cfgs := [numVariants]pbtree.Config{
		vBPlus: {Width: 1},
		vP8:    {Width: 8, Prefetch: true},
		vP8e:   {Width: 8, Prefetch: true, JumpArray: pbtree.JumpExternal},
	}
	for v, cfg := range cfgs {
		h := pbtree.DefaultHierarchy()
		cfg.Mem = h
		t, err := pbtree.New(cfg)
		if err != nil {
			return trees, host, fmt.Errorf("sim tree %s: %w", variantNames[v], err)
		}
		t0 := time.Now()
		if err := t.Bulkload(pairs, 1.0); err != nil {
			return trees, host, fmt.Errorf("bulkload %s: %w", variantNames[v], err)
		}
		host[v] = time.Since(t0)
		trees[v] = simTree{h: h, t: t}
	}
	return trees, host, nil
}

// simOpStats accumulates the simulated statistics and host time of one
// kind of operation on one tree.
type simOpStats struct {
	calls int64 // operations
	ops   int64 // units of work: rows for scans, else equal to calls
	mem   pbtree.MemStats
	host  time.Duration
	wrong int64
}

func (s *simOpStats) cycles() float64 { return float64(s.mem.Total()) / float64(s.ops) }

func (s *simOpStats) add(calls, ops int64, before, after pbtree.MemStats, host time.Duration) {
	d := after.Sub(before)
	s.calls += calls
	s.ops += ops
	s.host += host
	s.mem.Busy += d.Busy
	s.mem.Stall += d.Stall
	s.mem.L1Hits += d.L1Hits
	s.mem.L2Hits += d.L2Hits
	s.mem.MemMisses += d.MemMisses
	s.mem.PFHits += d.PFHits
	s.mem.Prefetch += d.Prefetch
	s.mem.PFMem += d.PFMem
}

// simSearches runs count searches for keys drawn by next and checks
// every answer. Block means of the host time go to samples (in
// microseconds per search) when samples is non-nil.
func (st simTree) simSearches(count int, next func() int, acc *simOpStats, samples *[]float64) {
	before := st.h.Stats()
	t0 := time.Now()
	for done := 0; done < count; {
		n := min(blockOps, count-done)
		b0 := time.Now()
		for i := 0; i < n; i++ {
			k := keyOf(next())
			if tid, ok := st.t.Search(k); !ok || tid != pbtree.TID(k/8) {
				acc.wrong++
			}
		}
		if samples != nil {
			*samples = append(*samples, float64(time.Since(b0))/1e3/float64(n))
		}
		done += n
	}
	acc.add(int64(count), int64(count), before, st.h.Stats(), time.Since(t0))
}

// simScans runs count scans of rows tuple IDs each; one scan is one
// sample (microseconds per scan).
func (st simTree) simScans(count, rows, nkeys int, next func() int, acc *simOpStats, samples *[]float64) {
	before := st.h.Stats()
	t0 := time.Now()
	for i := 0; i < count; i++ {
		start := min(next(), nkeys-rows)
		b0 := time.Now()
		if got := st.t.Scan(keyOf(start), rows); got != rows {
			acc.wrong++
		}
		if samples != nil {
			*samples = append(*samples, float64(time.Since(b0))/1e3)
		}
	}
	acc.add(int64(count), int64(count)*int64(rows), before, st.h.Stats(), time.Since(t0))
}

// simUpdates runs count inserts (del=false) or deletes (del=true) of
// the keys keyAt(from), keyAt(from+1), ...; blocks as in simSearches.
func (st simTree) simUpdates(del bool, from, count int, keyAt func(int) pbtree.Key, acc *simOpStats, samples *[]float64) {
	before := st.h.Stats()
	t0 := time.Now()
	for done := 0; done < count; {
		n := min(blockOps, count-done)
		b0 := time.Now()
		for i := 0; i < n; i++ {
			k := keyAt(from + done + i)
			ok := false
			if del {
				ok = st.t.Delete(k)
			} else {
				ok = st.t.Insert(k, pbtree.TID(k))
			}
			if !ok {
				acc.wrong++
			}
		}
		if samples != nil {
			*samples = append(*samples, float64(time.Since(b0))/1e3/float64(n))
		}
		done += n
	}
	acc.add(int64(count), int64(count), before, st.h.Stats(), time.Since(t0))
}

// insertKeys returns the j-th key to insert into an n-key tree: keys
// between preloaded keys, scattered by a multiplicative permutation so
// that no key is inserted twice.
func insertKeys(n int) func(int) pbtree.Key {
	mult := uint64(2654435761)
	for gcd(mult, uint64(n)) != 1 {
		mult += 2
	}
	return func(j int) pbtree.Key { return keyOf(1+int(uint64(j)*mult%uint64(n))) + 4 }
}

// simProbeResult is a short, fixed-count measurement of the three
// simulated trees at one key count: warm searches and scans, every tree
// on the same seeded keys of the workload's distribution. It defines
// the sim_*_speedup metrics of the workloads that are not paper-sim.
type simProbeResult struct {
	trees        [numVariants]simTree
	search, scan [numVariants]simOpStats
	bulkHost     [numVariants]time.Duration
}

func (p *simProbeResult) searchSpeedup() float64 {
	return p.search[vBPlus].cycles() / p.search[vP8].cycles()
}

func (p *simProbeResult) scanSpeedup() float64 {
	return p.scan[vBPlus].cycles() / p.scan[vP8e].cycles()
}

// tally adds the probe's operations and wrong answers to a result.
func (p *simProbeResult) tally(r *result) {
	var wrong int64
	for v := range p.search {
		r.Attempted += p.search[v].calls + p.scan[v].calls
		wrong += p.search[v].wrong + p.scan[v].wrong
	}
	if wrong > 0 {
		r.Failed += wrong
		r.incorrect("sim probe: %d wrong answers", wrong)
	}
}

func simProbe(w *workload, seed int64) (*simProbeResult, error) {
	c := w.SimProbe
	if c.Searches == 0 { // paper-sim's ladder: its own run has no probe
		c = simCounts{Warm: 2000, Searches: 50000, Scans: 1000, ScanRows: 1000}
	}
	p := &simProbeResult{}
	var err error
	if p.trees, p.bulkHost, err = buildSimTrees(sortedPairs(w.Keys)); err != nil {
		return nil, err
	}
	for v, st := range p.trees {
		keys := newKeyGen(w, w.Keys, rand.New(rand.NewSource(seed)))
		var warm simOpStats
		st.simSearches(c.Warm, keys.next, &warm, nil)
		p.search[v].wrong += warm.wrong
		st.simSearches(c.Searches, keys.next, &p.search[v], nil)
		st.simScans(c.Scans, c.ScanRows, w.Keys, keys.next, &p.scan[v], nil)
	}
	return p, nil
}

// addSimSpeedups runs the sim probe and sets the two simulated
// speed-up metrics every workload reports.
func addSimSpeedups(r *result, w *workload, seed int64) error {
	runtime.GC() // the probe allocates three trees: start from a clean heap
	p, err := simProbe(w, seed)
	if err != nil {
		return err
	}
	r.set("sim_search_speedup", "ratio", p.searchSpeedup())
	r.set("sim_scan_speedup", "ratio", p.scanSpeedup())
	r.Detail["sim_search_cycles_bplus"] = p.search[vBPlus].cycles()
	r.Detail["sim_search_cycles_p8"] = p.search[vP8].cycles()
	r.Detail["sim_scan_cycles_per_row_bplus"] = p.scan[vBPlus].cycles()
	r.Detail["sim_scan_cycles_per_row_p8e"] = p.scan[vP8e].cycles()
	p.tally(r)
	return nil
}

// simSnapshot is every simulated statistic of one tree at one moment;
// two runs of the same operations must produce equal snapshots.
type simSnapshot struct {
	mem pbtree.MemStats
	now uint64
	upd pbtree.UpdateStats
	len int
}

func (st simTree) snapshot() simSnapshot {
	return simSnapshot{mem: st.h.Stats(), now: st.h.Now(), upd: st.t.UpdateStats(), len: st.t.Len()}
}

// simRun is the paper-sim operation sequence. After a warm-up of every
// tree it runs rounds; a round visits the three trees in turn, and on
// each runs the per-round counts (searches, scans, inserts, then
// deletes of the oldest inserted keys), every tree on the same seeded
// key sequence. Interleaving the trees spreads each tree's samples over
// the whole run, so a slow spell of the host touches a minority of any
// one metric's samples. It stops after `upTo` rounds and returns each
// tree's snapshot after round one.
type simRun struct {
	nkeys    int
	perRound simCounts // Warm is the whole warm-up, not per round
	seed     int64
	timed    bool

	// Filled by run when timed.
	stats      [numVariants][4]simOpStats // search, scan, insert, delete
	seqSamples []float64                  // p8B+ search blocks
	mixSamples []float64                  // every other block
	roundOps   []float64                  // per round: mix operations per host second
	roundCPU   []float64                  // per round: process CPU microseconds per operation
	roundSeq   []float64                  // per round: median of the round's seq samples
	roundMix   []float64                  // per round: median of the round's mix samples
}

const (
	sSearch = iota
	sScan
	sInsert
	sDelete
)

// mixTotals sums calls and host time over everything but the p8B+
// tree's searches, which are the seq phase.
func (s *simRun) totals() (ops, mixOps int64, mixHost time.Duration) {
	for v := range s.stats {
		for k, st := range s.stats[v] {
			ops += st.calls
			if v != vP8 || k != sSearch {
				mixOps += st.calls
				mixHost += st.host
			}
		}
	}
	return ops, mixOps, mixHost
}

func (s *simRun) run(trees [numVariants]simTree, upTo int) (first [numVariants]simSnapshot) {
	// No collection inside the run: where one falls would decide which
	// samples are slow. What the run allocates (scan buffers, new
	// nodes) is the same in every run and small beside the trees.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	keyAt := insertKeys(s.nkeys)
	var next [numVariants]func() int
	for v, st := range trees {
		r := rand.New(rand.NewSource(s.seed))
		next[v] = func() int { return 1 + r.Intn(s.nkeys) }
		var warm simOpStats
		st.simSearches(s.perRound.Warm, next[v], &warm, nil)
		s.stats[v][sSearch].wrong += warm.wrong
		st.h.ResetStats()
	}
	c := s.perRound
	for round := 0; round < upTo; round++ {
		ops0, mixOps0, mixHost0 := s.totals()
		cpu0, seq0, mix0 := selfCPU(), len(s.seqSamples), len(s.mixSamples)
		for v, st := range trees {
			var seq, mix *[]float64
			if s.timed {
				seq, mix = &s.mixSamples, &s.mixSamples
				if v == vP8 {
					seq = &s.seqSamples
				}
			}
			st.simSearches(c.Searches, next[v], &s.stats[v][sSearch], seq)
			st.simScans(c.Scans, c.ScanRows, s.nkeys, next[v], &s.stats[v][sScan], mix)
			st.simUpdates(false, round*c.Inserts, c.Inserts, keyAt, &s.stats[v][sInsert], mix)
			st.simUpdates(true, round*c.Deletes, c.Deletes, keyAt, &s.stats[v][sDelete], mix)
			if round == 0 {
				first[v] = st.snapshot()
			}
		}
		if s.timed {
			ops, mixOps, mixHost := s.totals()
			s.roundOps = append(s.roundOps, float64(mixOps-mixOps0)/(mixHost-mixHost0).Seconds())
			s.roundCPU = append(s.roundCPU, float64((selfCPU()-cpu0).Microseconds())/float64(ops-ops0))
			s.roundSeq = append(s.roundSeq, median(s.seqSamples[seq0:]))
			s.roundMix = append(s.roundMix, median(s.mixSamples[mix0:]))
		}
	}
	return first
}

// runPaperSim is the paper-sim workload: fixed operation counts on the
// three simulated trees at the paper's key count.
func runPaperSim(e *env, w *workload) (*result, error) {
	res := newResult(w, false, e.host)
	hp, _, _ := loadShape()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(hp))
	scale := e.seconds / w.Nominal
	rounds := max(w.Rounds, 1)
	per := simCounts{
		Warm:     scaled(w.Counts.Warm, scale, blockOps),
		Searches: scaled(w.Counts.Searches/rounds, scale, blockOps),
		Scans:    scaled(w.Counts.Scans/rounds, scale, 1),
		ScanRows: w.Counts.ScanRows,
		Inserts:  scaled(w.Counts.Inserts/rounds, scale, blockOps),
		Deletes:  scaled(w.Counts.Deletes/rounds, scale, 1),
	}
	per.Deletes = min(per.Deletes, per.Inserts)

	// Set-up: generate the pairs and bulkload all three trees, timed
	// several times; the last set is the one measured.
	var trees [numVariants]simTree
	var setups []float64
	for rep := 0; rep < w.Reps; rep++ {
		trees = [numVariants]simTree{}
		runtime.GC()
		t0 := time.Now()
		var err error
		if trees, _, err = buildSimTrees(sortedPairs(w.Keys)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.combine("setup_s", setups)

	run := &simRun{nkeys: w.Keys, perRound: per, seed: e.seed, timed: true}
	t0 := time.Now()
	first := run.run(trees, rounds)
	wall := time.Since(t0)
	rss, err := procMB(selfPID, "VmHWM")
	if err != nil {
		return nil, err
	}

	ops, _, _ := run.totals()
	var wrong int64
	for v := range run.stats {
		for _, s := range run.stats[v] {
			wrong += s.wrong
		}
	}
	res.Attempted, res.Failed = ops, wrong
	if wrong > 0 {
		res.incorrect("%d simulated operations returned a wrong answer", wrong)
	}
	// Every metric is taken per round (latencies as the round's median)
	// and the rounds are combined by quietMean: a slow spell of the host
	// moves some rounds, not the run.
	res.Samples["seq_p50_us"], res.Samples["lat_p50_us"] = len(run.seqSamples), len(run.mixSamples)
	res.combine("seq_p50_us", run.roundSeq)
	res.combine("lat_p50_us", run.roundMix)
	res.combine("ops_per_s", run.roundOps)
	res.combine("cpu_us_per_op", run.roundCPU)
	res.p99("lat_p99_us", run.mixSamples)
	res.set("peak_rss_mb", "MB", rss)
	st := &run.stats
	res.set("sim_search_speedup", "ratio", st[vBPlus][sSearch].cycles()/st[vP8][sSearch].cycles())
	res.set("sim_scan_speedup", "ratio", st[vBPlus][sScan].cycles()/st[vP8e][sScan].cycles())
	for v, name := range variantNames {
		res.Detail["sim_search_cycles_"+name] = run.stats[v][sSearch].cycles()
		res.Detail["sim_scan_cycles_per_row_"+name] = run.stats[v][sScan].cycles()
		res.Detail["sim_insert_cycles_"+name] = run.stats[v][sInsert].cycles()
		res.Detail["sim_delete_cycles_"+name] = run.stats[v][sDelete].cycles()
	}
	res.Detail["sim_ops"] = float64(ops)
	res.Detail["host_wall_s"] = wall.Seconds()

	// Output check: the first round, replayed on fresh trees, must
	// reproduce every simulated statistic bit for bit.
	trees = [numVariants]simTree{}
	runtime.GC()
	fresh, _, err := buildSimTrees(sortedPairs(w.Keys))
	if err != nil {
		return nil, err
	}
	replay := &simRun{nkeys: w.Keys, perRound: per, seed: e.seed}
	again := replay.run(fresh, 1)
	for v, name := range variantNames {
		if first[v] != again[v] {
			res.incorrect("%s: statistics after round 1 differ on replay: %+v vs %+v", name, first[v], again[v])
		}
	}
	res.Detail["replayed_frac"] = 1 / float64(rounds)
	return res, nil
}
