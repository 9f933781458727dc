package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math/rand"

	"pbtree"
)

// The workload definitions are data (bench/workloads/*.json), compiled
// in so the harness does not depend on its working directory.
//
//go:embed workloads/*.json
var workloadFS embed.FS

// workloadNames fixes the order workloads run and report in.
var workloadNames = []string{"point-read", "write-mixed", "embedded", "paper-sim"}

// nominalSeconds is the measured time of one workload at -scale 1.
const nominalSeconds = 40.0

// opKind is one operation of a traffic mix.
type opKind int

const (
	opGet opKind = iota
	opMGet
	opScan
	opPut
	opDel
	opStream
	opPutGet // a put, then a get of the key just put: a dependent caller's read-your-write
	numOps
)

var opNames = [numOps]string{"get", "mget", "scan", "put", "del", "stream", "put+get"}

func parseOp(s string) (opKind, error) {
	for k, n := range opNames {
		if n == s {
			return opKind(k), nil
		}
	}
	return 0, fmt.Errorf("unknown op %q", s)
}

// mixEntry is one line of a workload's traffic mix: Pct percent of the
// operations are Op, each over N keys, pairs or rows.
type mixEntry struct {
	Op    string  `json:"op"`
	Pct   float64 `json:"pct"`
	N     int     `json:"n"`
	Chunk int     `json:"chunk"`

	kind opKind
}

// workload is one bench/workloads/*.json file.
type workload struct {
	Name     string     `json:"name"`
	Kind     string     `json:"kind"` // served | embedded | sim
	Why      string     `json:"why"`
	Keys     int        `json:"keys"`
	Backend  string     `json:"backend"`
	Durable  bool       `json:"durable"`
	Fsync    string     `json:"fsync"`
	Dist     string     `json:"dist"` // uniform | zipf
	ZipfS    float64    `json:"zipf_s"`
	Primary  string     `json:"primary"`
	Rate     float64    `json:"rate"` // open-loop ops/s over all connections
	Mix      []mixEntry `json:"mix"`
	Phases   phases     `json:"phases"`
	Reps     int        `json:"setup_reps"`
	Recheck  int        `json:"recheck_keys"`
	SimProbe simCounts  `json:"sim_probe"`
	Counts   simCounts  `json:"counts"`
	Nominal  float64    `json:"nominal_s"`
	Rounds   int        `json:"rounds"`
	Ladder   ladderSpec `json:"ladder"`
}

// phases are the measured phase lengths in seconds at -scale 1.
type phases struct {
	Warm float64 `json:"warm_s"`
	Seq  float64 `json:"seq_s"`
	Open float64 `json:"open_s"`
	Sat  float64 `json:"sat_s"`
	Mix  float64 `json:"mix_s"`
}

func (p phases) total() float64 { return p.Warm + p.Seq + p.Open + p.Sat + p.Mix }

// simCounts are fixed operation counts on the simulated trees.
type simCounts struct {
	Warm     int `json:"warm"`
	Searches int `json:"searches"`
	Scans    int `json:"scans"`
	ScanRows int `json:"scan_rows"`
	Inserts  int `json:"inserts"`
	Deletes  int `json:"deletes"`
}

// ladderSpec sizes the traced run at -scale 1.
type ladderSpec struct {
	Probes     int     `json:"probes"`
	WireProbes int     `json:"wire_probes"`
	Sat        float64 `json:"sat_s"`
	Open       float64 `json:"open_s"`
}

func loadWorkload(name string) (*workload, error) {
	b, err := workloadFS.ReadFile("workloads/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("workload %q: %w", name, err)
	}
	var w workload
	if err := json.Unmarshal(b, &w); err != nil {
		return nil, fmt.Errorf("workload %q: %w", name, err)
	}
	if w.Name != name {
		return nil, fmt.Errorf("workload file %s.json names itself %q", name, w.Name)
	}
	for i := range w.Mix {
		if w.Mix[i].kind, err = parseOp(w.Mix[i].Op); err != nil {
			return nil, fmt.Errorf("workload %q: %w", name, err)
		}
		w.Mix[i].N = max(w.Mix[i].N, 1)
	}
	w.Reps = max(w.Reps, 1)
	return &w, nil
}

// scaled multiplies a count by the run's scale, never below floor.
func scaled(n int, scale float64, floor int) int {
	return max(int(float64(n)*scale), floor)
}

// keyOf is the i-th preloaded key (1-based); its tuple ID is i. This is
// the key space cmd/pbtree-server preloads with -keys.
func keyOf(i int) pbtree.Key { return pbtree.Key(8 * i) }

// sortedPairs generates the preload: keys 8, 16, ..., 8n with tid = key/8.
func sortedPairs(n int) []pbtree.Pair {
	p := make([]pbtree.Pair, n)
	for i := range p {
		p[i] = pbtree.Pair{Key: keyOf(i + 1), TID: pbtree.TID(i + 1)}
	}
	return p
}

// keyGen draws indexes in [1, n] of preloaded keys.
type keyGen struct {
	n    int
	r    *rand.Rand
	zipf *rand.Zipf
	mult uint64 // scatters Zipf ranks over the key space
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// newKeyGen builds the workload's key distribution over n keys. Zipf
// ranks are scattered by a multiplicative permutation of [0, n), so the
// hot keys are not neighbours in the tree.
func newKeyGen(w *workload, n int, r *rand.Rand) *keyGen {
	g := &keyGen{n: n, r: r}
	if w.Dist == "zipf" {
		g.zipf = rand.NewZipf(r, w.ZipfS, 1, uint64(n-1))
		g.mult = 2654435761
		for gcd(g.mult, uint64(n)) != 1 {
			g.mult += 2
		}
	}
	return g
}

func (g *keyGen) next() int {
	if g.zipf == nil {
		return 1 + g.r.Intn(g.n)
	}
	return 1 + int(g.zipf.Uint64()*g.mult%uint64(g.n))
}

// op is one generated operation, ready to execute and to check.
type op struct {
	kind  opKind
	keys  []pbtree.Key  // get, mget, del
	pairs []pbtree.Pair // put
	start pbtree.Key    // scan, stream
	n     int           // scan limit / stream rows
	chunk int           // stream chunk rows
}

// opGen generates a workload's operations for one connection (or one
// in-process caller). Reads address preloaded keys, whose answer is
// fixed; writes address the connection's own keys through its model.
type opGen struct {
	mix   []mixEntry
	cum   []float64 // running totals of the mix's shares
	keys  *keyGen
	model *ackModel
}

func newOpGen(w *workload, r *rand.Rand, model *ackModel) *opGen {
	g := &opGen{mix: w.Mix, keys: newKeyGen(w, w.Keys, r), model: model}
	total := 0.0
	for _, m := range w.Mix {
		total += m.Pct
		g.cum = append(g.cum, total)
	}
	return g
}

func (g *opGen) next() op { return g.make(g.mix[pick(g.cum, g.keys.r)]) }

// pick draws an index with the weights whose running totals are cum.
func pick(cum []float64, r *rand.Rand) int {
	x := r.Float64() * cum[len(cum)-1]
	i := 0
	for i < len(cum)-1 && x >= cum[i] {
		i++
	}
	return i
}

// pairKeys lists the keys of pairs.
func pairKeys(pairs []pbtree.Pair) []pbtree.Key {
	keys := make([]pbtree.Key, len(pairs))
	for i, p := range pairs {
		keys[i] = p.Key
	}
	return keys
}

// primary generates the workload's primary op: one key or one pair.
func (g *opGen) primary(kind opKind) op {
	return g.make(mixEntry{kind: kind, N: 1})
}

func (g *opGen) make(m mixEntry) op {
	o := op{kind: m.kind, n: m.N, chunk: m.Chunk}
	switch m.kind {
	case opGet:
		o.keys = []pbtree.Key{keyOf(g.keys.next())}
	case opMGet:
		o.keys = make([]pbtree.Key, m.N)
		for i := range o.keys {
			o.keys[i] = keyOf(g.keys.next())
		}
	case opScan, opStream:
		o.start = keyOf(g.keys.next())
	case opPut, opPutGet:
		o.pairs = g.model.reservePut(g.keys.r, m.N)
	case opDel:
		o.keys = []pbtree.Key{g.model.reserveDel(g.keys.r)}
	}
	return o
}
