package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"pbtree"
)

func TestPercentileRule(t *testing.T) {
	v := make([]float64, 999)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if _, ok := p99(v); ok {
		t.Fatalf("p99 reported from %d samples, want none below %d", len(v), minP99Samples)
	}
	v = append(v, 1000)
	rand.New(rand.NewSource(1)).Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
	got, ok := p99(v)
	if !ok || got != 990 { // nearest rank: exactly ten samples lie beyond it
		t.Fatalf("p99 of 1..1000 = %v ok=%v, want 990", got, ok)
	}
	if m := median(v); m != 500.5 {
		t.Fatalf("median of 1..1000 = %v, want 500.5", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median of 3 values = %v, want 2", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing should be NaN")
	}
}

func TestMidMean(t *testing.T) {
	// Eight lifetimes, one stalled and one lucky: both quarters go.
	if got := midMean([]float64{9, 1000, 11, 10, 12, 0.1, 10, 8}); got != (9+10+10+11)/4.0 {
		t.Fatalf("midMean of 8 = %v, want 10", got)
	}
	if got := midMean([]float64{5, 1, 9}); got != 5 { // under four values nothing is dropped
		t.Fatalf("midMean of 3 = %v, want 5", got)
	}
	if got := midMean([]float64{1, 2, 3, 4, 100}); got != 3 {
		t.Fatalf("midMean of 5 = %v, want 3", got)
	}
	if !math.IsNaN(midMean(nil)) {
		t.Fatal("midMean of nothing should be NaN")
	}
}

func TestQuietMean(t *testing.T) {
	// Eight lifetimes: the best quarter is two, at whichever end is better.
	v := []float64{9, 1000, 11, 10, 12, 7, 10, 8}
	if got := quietMean(v, "lower"); got != 7.5 {
		t.Fatalf("quietMean lower of 8 = %v, want 7.5", got)
	}
	if got := quietMean(v, "higher"); got != 506 {
		t.Fatalf("quietMean higher of 8 = %v, want 506", got)
	}
	// The quarter is rounded up: two of five, one of three.
	if got := quietMean([]float64{5, 4, 3, 2, 1}, "lower"); got != 1.5 {
		t.Fatalf("quietMean of 5 = %v, want 1.5", got)
	}
	if got := quietMean([]float64{5, 1, 9}, "higher"); got != 9 {
		t.Fatalf("quietMean of 3 = %v, want 9", got)
	}
	if !math.IsNaN(quietMean(nil, "lower")) {
		t.Fatal("quietMean of nothing should be NaN")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if s := iqrShare([]float64{1, 2, 4, 8, 16}); s != (12-1.5)/4 {
		t.Fatalf("iqrShare = %v", s)
	}
}

// fakeClock advances only when slept on; a sleep takes longer than
// asked, as on the benchmark host, and one sleep stalls.
type fakeClock struct {
	now     time.Time
	sleeps  int
	stallAt int
}

func (f *fakeClock) clock() clock {
	return clock{
		now: func() time.Time { return f.now },
		sleep: func(d time.Duration) {
			f.sleeps++
			d = d * 19 / 10 // a 1 ms sleep takes 1.9 ms
			if f.sleeps == f.stallAt {
				d = 50 * time.Millisecond
			}
			f.now = f.now.Add(d)
		},
	}
}

func TestPacerDueTimesAndLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	fc := &fakeClock{now: start, stallAt: 10}
	const n, gap = 400, 250 * time.Microsecond // 4000 requests/s
	var dues []time.Time
	var late []time.Duration
	pace(fc.clock(), start, gap, n, func(i int64, due time.Time) {
		if want := start.Add(time.Duration(i) * gap); !due.Equal(want) {
			t.Fatalf("request %d due at %v, want %v", i, due, want)
		}
		if due.After(fc.now) {
			t.Fatalf("request %d issued %v before it was due", i, due.Sub(fc.now))
		}
		dues = append(dues, due)
		late = append(late, fc.now.Sub(due))
	})
	if len(dues) != n {
		t.Fatalf("issued %d requests, want %d", len(dues), n)
	}
	// A request waits at most one (long) tick for the pacer, except the
	// ones that came due during the stall: those are issued right after
	// it, up to the whole stall late — and that lateness is what the
	// latency from due time then includes.
	var worst time.Duration
	stalled := 0
	for _, l := range late {
		worst = max(worst, l)
		if l > 2*time.Millisecond {
			stalled++
		}
	}
	if worst < 45*time.Millisecond || worst > 50*time.Millisecond {
		t.Fatalf("worst lateness %v, want just under the 50 ms stall", worst)
	}
	if want := int(48 * time.Millisecond / gap); stalled < want-8 || stalled > want+8 {
		t.Fatalf("%d requests late by the stall, want about %d", stalled, want)
	}
	// The pacer sleeps, it does not spin: about one sleep per tick.
	if elapsed := fc.now.Sub(start); fc.sleeps > int(elapsed/pacerTick) {
		t.Fatalf("%d sleeps in %v", fc.sleeps, elapsed)
	}
}

func TestRecorderCountsFromDueTime(t *testing.T) {
	r := newRecorder()
	due := r.start
	r.add(opGet, due, due.Add(300*time.Microsecond), due.Add(1500*time.Microsecond), outcome{})
	r.add(opGet, due, due, due.Add(2500*time.Millisecond), outcome{})
	r.add(opPut, due, due, due.Add(time.Millisecond), outcome{err: os.ErrClosed})
	r.add(opScan, due, due, due.Add(time.Millisecond), outcome{wrong: "bad row"})
	if r.attempted != 4 || r.failed != 1 || r.wrong != 1 || r.completed() != 2 {
		t.Fatalf("tallies: attempted %d failed %d wrong %d", r.attempted, r.failed, r.wrong)
	}
	if got := r.all(); len(got) != 2 || got[0] != 1500 || got[1] != 2.5e6 {
		t.Fatalf("latencies %v, want [1500 2.5e6] us from the due time", got)
	}
	if r.late[0] != 300 {
		t.Fatalf("lateness %v us, want 300", r.late[0])
	}
	// Completions are counted per 100 ms slice: one in slice 0, one in slice 25.
	if len(r.slices) != 26 || r.slices[0] != 1 || r.slices[25] != 1 {
		t.Fatalf("slices %v", r.slices)
	}
	if tp := r.throughput(0, 4*time.Second); tp != 0.5 {
		t.Fatalf("throughput over 4 s = %v, want 0.5/s", tp)
	}
	if tp := r.throughput(time.Second, 3*time.Second); tp != 0.5 {
		t.Fatalf("throughput without the first second = %v, want 0.5/s", tp)
	}
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes([]float64{1200, 1.5, 0.9})
	want := []float64{1198.5, 0.6, 0.9}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("self times %v, want %v", got, want)
		}
	}
	if len(selfTimes(nil)) != 0 {
		t.Fatal("self times of no rungs")
	}
}

func TestSpanParents(t *testing.T) {
	tr := newTracer()
	t0 := tr.origin
	for rung := 0; rung < numRungs; rung++ {
		tr.add(rung, "get", 7, t0, t0.Add(time.Microsecond))
	}
	tr.add(rungWire, "sat-get", -1, t0, t0.Add(time.Microsecond))
	byRung := map[int]span{}
	for _, s := range tr.spans[:numRungs] {
		byRung[s.rung] = s
	}
	for rung, want := range map[int]int{rungStore: rungWire, rungTree: rungStore, rungSim: rungTree, rungStoreDurable: rungWire, rungStoreLSM: rungWire} {
		if byRung[rung].parent != byRung[want].id {
			t.Errorf("%s span's parent is not the %s span", rungNames[rung], rungNames[want])
		}
	}
	if byRung[rungWire].parent != 0 || tr.spans[numRungs].parent != 0 {
		t.Error("outermost spans must have no parent")
	}
	if tr.spanID(rungWire, "get", 7) == tr.spanID(rungWire, "put", 7) || tr.spanID(rungWire, "get", 7) == tr.spanID(rungWire, "get", 8) {
		t.Error("span IDs collide")
	}
}

func TestStageClasses(t *testing.T) {
	for stage, want := range map[string]string{
		"exec": classExec, "apply": classExec,
		"wal_append": classIO, "wal_fsync": classIO, "decode": classIO, "write": classIO,
		"read":      classNone,
		"admission": classWait, "batch_wait": classWait, "resp_queue": classWait, "other": classWait,
		"slot_wait": classWait, "a_stage_that_does_not_exist_yet": classWait,
	} {
		if got := stageClass(stage); got != want {
			t.Errorf("stage %q is class %q, want %q", stage, got, want)
		}
	}
}

func TestStageBudget(t *testing.T) {
	parse := func(s string) serverStats {
		var st serverStats
		if err := json.Unmarshal([]byte(s), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	before := parse(`{"server_stage_totals":{"search":{"count":10,"sum_ns":10000}},
		"server_stages":{"search":{"read":{"count":10,"sum_ns":900000},"batch_wait":{"count":10,"sum_ns":8000}}}}`)
	after := parse(`{"server_stage_totals":{"search":{"count":110,"sum_ns":1010000}},
		"server_stages":{"search":{"read":{"count":110,"sum_ns":99900000},"batch_wait":{"count":110,"sum_ns":808000},
		"token_wait":{"count":100,"sum_ns":100000},"write":{"count":100,"sum_ns":50000},"exec":{"count":100,"sum_ns":50000}}}}`)
	var notes []string
	b := budgetOf(before, after, "get", &notes)
	if b.n != 100 || b.total != 10 {
		t.Fatalf("n %d total %v us, want 100 and 10", b.n, b.total)
	}
	// batch_wait 8 + the unknown token_wait 1 = wait 9; read is left out.
	if b.class[classWait] != 9 || b.class[classIO] != 0.5 || b.class[classExec] != 0.5 {
		t.Fatalf("classes %v", b.class)
	}
	if sum := b.class[classWait] + b.class[classIO] + b.class[classExec]; sum != b.total {
		t.Fatalf("classes sum to %v, total %v", sum, b.total)
	}
	if len(notes) != 0 {
		t.Fatalf("unexpected notes %v", notes)
	}
	// An absent field reads 0 and leaves a note.
	if p := budgetOf(before, after, "put", &notes); p.total != 0 || len(notes) != 1 || !strings.Contains(notes[0], "put") {
		t.Fatalf("absent op class: total %v notes %v", p.total, notes)
	}
}

func TestProcParsing(t *testing.T) {
	stat := []byte("4242 (pbtree) server (x)) S 1 4242 4242 0 -1 4194560 1000 0 0 0 150 50 0 0 20 0 9 0 100 1000000 5000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0")
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 2*time.Second { // (150+50) ticks at 100 Hz
		t.Fatalf("cpu %v err %v, want 2s", cpu, err)
	}
	if _, err := parseStatCPU([]byte("1 (short) S 1 2")); err == nil {
		t.Fatal("truncated stat accepted")
	}
	status := []byte("Name:\tpbtree-server\nVmPeak:\t  900000 kB\nVmHWM:\t  316576 kB\nVmRSS:\t  300000 kB\nThreads:\t5\n")
	if kb, err := parseStatusKB(status, "VmHWM"); err != nil || kb != 316576 {
		t.Fatalf("VmHWM %d err %v", kb, err)
	}
	if kb, err := parseStatusKB(status, "VmRSS"); err != nil || kb != 300000 {
		t.Fatalf("VmRSS %d err %v", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Fatal("absent field accepted")
	}
	if ns, err := parseSchedstat([]byte("377620123 58495 12\n")); err != nil || ns != 377620123*time.Nanosecond {
		t.Fatalf("schedstat %v err %v", ns, err)
	}
	if _, err := parseSchedstat([]byte("\n")); err == nil {
		t.Fatal("empty schedstat accepted")
	}
	if _, err := procCPU(selfPID); err != nil {
		t.Fatalf("own /proc stat: %v", err)
	}
	if mb, err := procMB(selfPID, "VmHWM"); err != nil || mb <= 0 {
		t.Fatalf("own VmHWM %v err %v", mb, err)
	}
}

func TestAckModel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m, other := newAckModel(0, 1000), newAckModel(1, 1000)
	a := m.reservePut(r, 4)
	seen := map[pbtree.Key]bool{}
	for _, p := range a {
		if p.Key%8 != 1 || p.TID == 0 || seen[p.Key] {
			t.Fatalf("reserved pair %+v: want distinct keys = 1 mod 8, non-zero tid", p)
		}
		seen[p.Key] = true
	}
	if k := other.reservePut(r, 1)[0].Key; k%8 != 2 {
		t.Fatalf("second connection's key %d is not in its own set", k)
	}
	// A key with a write in flight is never handed out again.
	for i := 0; i < 5000; i++ {
		for _, p := range m.reservePut(r, 1) {
			if seen[p.Key] {
				t.Fatalf("key %d reserved twice while in flight", p.Key)
			}
			m.fail([]pbtree.Key{p.Key}) // release; outcome unknown
		}
	}
	if keys, _ := m.expected(); len(keys) != 0 {
		t.Fatalf("unacked writes are in the checked set: %v", keys)
	}
	m.ackPut(a)
	keys, want := m.expected()
	if len(keys) != 4 {
		t.Fatalf("%d acked keys, want 4", len(keys))
	}
	for i, k := range keys {
		if want[i] != a[i].TID || k != a[i].Key {
			t.Fatalf("expected[%d] = %d:%d, want %+v", i, k, want[i], a[i])
		}
	}
	// Deletes pick acked keys; an acked delete must read back absent.
	d := m.reserveDel(r)
	if !seen[d] {
		t.Fatalf("delete picked key %d, want one of the put keys", d)
	}
	if again := m.reserveDel(r); again == d {
		t.Fatalf("key %d reserved for a second delete while in flight", d)
	} else {
		m.ackDel(again)
	}
	m.ackDel(d)
	keys, want = m.expected()
	for i, k := range keys {
		if k == d && want[i] != 0 {
			t.Fatalf("deleted key %d still expected with tid %d", k, want[i])
		}
	}
	// Overwrite after delete: the newest acked value wins.
	m.ackPut([]pbtree.Pair{{Key: d, TID: 99}})
	keys, want = m.expected()
	for i, k := range keys {
		if k == d && want[i] != 99 {
			t.Fatalf("re-put key %d expected tid %d, want 99", k, want[i])
		}
	}
	// A failed write takes its key out of the checked set for good.
	m.fail([]pbtree.Key{d})
	if keys, _ = m.expected(); len(keys) != 3 {
		t.Fatalf("%d checked keys after a failed write, want 3", len(keys))
	}
}

func TestCheckRows(t *testing.T) {
	rows := []pbtree.Pair{{Key: 16, TID: 2}, {Key: 17, TID: 5}, {Key: 24, TID: 3}}
	if msg := checkRows(rows, 16, 3, 100, false); msg != "" {
		t.Fatalf("valid rows rejected: %s", msg)
	}
	for name, bad := range map[string][]pbtree.Pair{
		"descending":  {{Key: 24, TID: 3}, {Key: 16, TID: 2}},
		"before":      {{Key: 8, TID: 1}},
		"wrong tid":   {{Key: 16, TID: 3}},
		"over limit":  {{Key: 16, TID: 2}, {Key: 24, TID: 3}, {Key: 32, TID: 4}, {Key: 40, TID: 5}},
		"duplicate":   {{Key: 16, TID: 2}, {Key: 16, TID: 2}},
		"gap (exact)": {{Key: 16, TID: 2}, {Key: 32, TID: 4}, {Key: 40, TID: 5}},
	} {
		if msg := checkRows(bad, 16, 3, 100, name == "gap (exact)"); msg == "" {
			t.Errorf("%s rows accepted", name)
		}
	}
	// The last rows of the key space: fewer than the limit is right.
	if msg := checkRows([]pbtree.Pair{{Key: 792, TID: 99}, {Key: 800, TID: 100}}, 792, 3, 100, true); msg != "" {
		t.Fatalf("tail scan rejected: %s", msg)
	}
}

func TestWorkloadsAndBenchmarkFileAgree(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside bench/: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(workloadNames))
	}
	for i, name := range workloadNames {
		w, err := loadWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if bf.Workloads[i].Name != name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q, workloads/%s.json says %q", i, bf.Workloads[i].Why, name, w.Why)
		}
		total := 0.0
		for _, m := range w.Mix {
			total += m.Pct
		}
		if len(w.Mix) > 0 && total != 100 {
			t.Errorf("%s: mix sums to %v%%", name, total)
		}
		if w.Kind != "sim" && w.Phases.total() != nominalSeconds {
			t.Errorf("%s: phases sum to %v s, want %v", name, w.Phases.total(), nominalSeconds)
		}
	}
	same := func(kind string, file, code []metricSpec) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(file), len(code))
		}
		for i := range code {
			if file[i].Name != code[i].Name || file[i].Unit != code[i].Unit || file[i].Better != code[i].Better {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, harness %+v", kind, i, file[i], code[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestKeyGen(t *testing.T) {
	for _, dist := range []string{"uniform", "zipf"} {
		w := &workload{Dist: dist, ZipfS: 1.1}
		a := newKeyGen(w, 1000, rand.New(rand.NewSource(5)))
		b := newKeyGen(w, 1000, rand.New(rand.NewSource(5)))
		counts := map[int]int{}
		for i := 0; i < 20000; i++ {
			k := a.next()
			if k != b.next() {
				t.Fatalf("%s: same seed, different keys", dist)
			}
			if k < 1 || k > 1000 {
				t.Fatalf("%s: key index %d outside [1, 1000]", dist, k)
			}
			counts[k]++
		}
		top := 0
		for _, c := range counts {
			top = max(top, c)
		}
		if dist == "zipf" && top < 2000 {
			t.Errorf("zipf: hottest key drawn %d of 20000 times, want a clear skew", top)
		}
		if dist == "uniform" && top > 100 {
			t.Errorf("uniform: hottest key drawn %d of 20000 times", top)
		}
	}
}
