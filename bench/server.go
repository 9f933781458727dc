package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"

	"pbtree"
)

// child is one pbtree-server process under test.
type child struct {
	cmd    *exec.Cmd
	addr   string
	pid    int
	exited chan struct{} // closed once Wait has returned
}

// children tracks every live server so a fatal exit can stop them all.
var children struct {
	sync.Mutex
	live map[*child]bool
}

// killAll stops every server still running; fatal paths call it so no
// process outlives the harness.
func killAll() {
	children.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.kill()
	}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// serverSpec is everything the harness may tell the server: the flags
// below and GOMAXPROCS, nothing else — every other knob keeps its
// default, so what is measured is the server as shipped.
type serverSpec struct {
	bin     string
	keys    int
	backend string
	dataDir string // "" = not durable
	fsync   string
	procs   int
	logPath string
}

func startServer(s serverSpec) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	args := []string{"-addr", addr, "-keys", strconv.Itoa(s.keys), "-shards", "2", "-backend", s.backend}
	if s.dataDir != "" {
		args = append(args, "-data-dir", s.dataDir, "-fsync", s.fsync)
	}
	logf, err := os.OpenFile(s.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(s.bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(s.procs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the harness even if the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", s.bin, err)
	}
	if pinned {
		// The child inherited the harness's CPUs; move it to its own.
		if err := pinProcess(cmd.Process.Pid, serverCPUs); err != nil {
			fmt.Fprintf(os.Stderr, "pbtree-bench: server not pinned: %v\n", err)
		}
	}
	c := &child{cmd: cmd, addr: addr, pid: cmd.Process.Pid, exited: make(chan struct{})}
	children.Lock()
	if children.live == nil {
		children.live = map[*child]bool{}
	}
	children.live[c] = true
	children.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a killed server carries nothing
		logf.Close()
		children.Lock()
		delete(children.live, c)
		children.Unlock()
		close(c.exited)
	}()
	return c, nil
}

// kill sends SIGKILL and waits for the process to be gone.
func (c *child) kill() {
	_ = c.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine
	<-c.exited
}

// stop asks for a graceful drain (SIGTERM) and falls back to SIGKILL.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(10 * time.Second):
		c.kill()
	}
}

// dialReady polls until the server accepts a connection and answers a
// verified GET of the last preloaded key — the moment a client could
// first use it.
func (c *child) dialReady(keys int, timeout time.Duration) (*pbtree.ServeClient, error) {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-c.exited:
			return nil, fmt.Errorf("server exited before it was ready (see its log)")
		default:
		}
		cl, err := pbtree.DialServer(c.addr)
		if err == nil {
			rs, err := cl.Do(&pbtree.ServeRequest{Op: pbtree.ServeOpGet, Keys: []pbtree.Key{keyOf(keys)}})
			if err == nil && rs.Status == pbtree.StatusOK && len(rs.Lookups) == 1 && rs.Lookups[0].TID == pbtree.TID(keys) {
				return cl, nil
			}
			cl.Close()
			if err == nil {
				return nil, fmt.Errorf("first GET of key %d answered status %d %+v, want tid %d", keyOf(keys), rs.Status, rs.Lookups, keys)
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("server not ready after %v: %v", timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stageStat mirrors one histogram summary of the STATS payload.
type stageStat struct {
	Count uint64 `json:"count"`
	SumNS int64  `json:"sum_ns"`
}

// serverStats is the part of the STATS payload the harness reads. It is
// decoded by field name, so a field a later server no longer sends
// reads as zero (and is noted) instead of breaking the build.
type serverStats struct {
	Ops         map[string]uint64               `json:"ops"`
	Rejected    uint64                          `json:"rejected"`
	Expired     uint64                          `json:"expired"`
	Stages      map[string]map[string]stageStat `json:"server_stages"`
	StageTotals map[string]stageStat            `json:"server_stage_totals"`
}

func fetchStats(cl *pbtree.ServeClient) (serverStats, error) {
	var s serverStats
	b, err := cl.Stats()
	if err != nil {
		return s, fmt.Errorf("STATS: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("STATS payload: %w", err)
	}
	return s, nil
}

// totalOps sums the completed-request counters of a STATS payload.
func (s serverStats) totalOps() uint64 {
	var n uint64
	for _, v := range s.Ops {
		n += v
	}
	return n
}

// Stage classes. Names are grouped so that a later split or rename of
// a stage keeps the metrics defined: anything not listed is a wait.
const (
	classExec = "exec"
	classIO   = "io"
	classWait = "wait"
	classNone = "" // think time: not part of the server-side total
)

func stageClass(stage string) string {
	switch stage {
	case "exec", "apply":
		return classExec
	case "wal_append", "wal_fsync", "decode", "write":
		return classIO
	case "read":
		return classNone
	}
	return classWait
}

// stageBudget is the mean microseconds per request an op class spent
// in each stage class between two STATS snapshots.
type stageBudget struct {
	n     uint64
	total float64
	class map[string]float64
}

// opClassAliases maps the harness's op names onto the op-class names
// the server has used for its stage tables.
var opClassAliases = map[string][]string{
	"get": {"search", "get"},
	"put": {"insert", "put"},
}

// budgetOf computes the per-request stage budget of op ("get" or
// "put") from two STATS snapshots. Absent fields yield zeros and a note.
func budgetOf(before, after serverStats, op string, notes *[]string) stageBudget {
	b := stageBudget{class: map[string]float64{}}
	var name string
	for _, alias := range opClassAliases[op] {
		if _, ok := after.StageTotals[alias]; ok {
			name = alias
			break
		}
	}
	if name == "" {
		*notes = append(*notes, fmt.Sprintf("STATS has no server_stage_totals entry for %s: srv_%s_* read 0", op, op))
		return b
	}
	b.n = after.StageTotals[name].Count - before.StageTotals[name].Count
	if b.n == 0 {
		*notes = append(*notes, fmt.Sprintf("STATS counted no %s between snapshots: srv_%s_* read 0", op, op))
		return b
	}
	per := func(a, z stageStat) float64 { return float64(z.SumNS-a.SumNS) / 1e3 / float64(b.n) }
	b.total = per(before.StageTotals[name], after.StageTotals[name])
	if len(after.Stages[name]) == 0 {
		*notes = append(*notes, fmt.Sprintf("STATS has no server_stages entry for %s: stage classes read 0", op))
	}
	seen := map[string]bool{}
	for stage, st := range after.Stages[name] {
		if cl := stageClass(stage); cl != classNone {
			b.class[cl] += per(before.Stages[name][stage], st)
			seen[cl] = true
		}
	}
	for _, cl := range []string{classExec, classIO, classWait} {
		if !seen[cl] {
			*notes = append(*notes, fmt.Sprintf("STATS has no %s-class stage for %s: srv_%s_%s_us reads 0", cl, op, op, cl))
		}
	}
	return b
}
