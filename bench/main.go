// Command pbtree-bench is the repository's benchmark: four workloads
// (two against the real pbtree-server binary over loopback, one
// against the in-process store, one on the simulated memory
// hierarchy), nine end-to-end metrics on each, and a separate traced
// run that walks a ladder of layers for the per-layer numbers. It
// imports only the root package pbtree and the standard library. See
// README.md in this directory and BENCHMARK.json at the repository
// root.
//
// The benchmark driver's form, one workload per invocation, the last
// line of standard output a JSON object:
//
//	bash bench/run.sh --workload point-read --seed 1 --seconds 20 --trace 0
//
// The reader's form, every workload in turn:
//
//	bash bench/run.sh -seed 1            # untraced: end-to-end metrics
//	bash bench/run.sh -seed 1 -traced    # traced: per-layer metrics, trace files
//	bash bench/run.sh -smoke             # -scale 0.1, one set-up each
//	bash bench/run.sh -selfcheck         # two interleaved sets of runs
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// env is what every workload run needs to know.
type env struct {
	serverBin string
	runDir    string // scratch of this process: data dirs, server logs
	results   string // where result and trace files go
	seed      int64
	seconds   float64 // measured seconds per workload
	host      hostBlock
	dirSeq    atomic.Int64
}

func (e *env) nextDir() int64 { return e.dirSeq.Add(1) }

// scratchDir is this process's scratch directory, removed on every exit.
var scratchDir string

// fatal stops every child process, removes the scratch directory and
// exits non-zero without printing a result line.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pbtree-bench: "+format+"\n", args...)
	killAll()
	if scratchDir != "" {
		os.RemoveAll(scratchDir)
	}
	os.Exit(1)
}

// watchdog enforces the contract's per-run limit: a hung workload exits
// non-zero, with its children stopped, before the driver's timeout.
func watchdog(limit time.Duration) *time.Timer {
	return time.AfterFunc(limit, func() { fatal("workload exceeded %v", limit) })
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload ("+fmt.Sprint(workloadNames)+"); empty = all in turn")
		seed         = flag.Int64("seed", 1, "seed of every generated input")
		seconds      = flag.Float64("seconds", 0, "measured seconds per workload (0 = nominal x -scale)")
		trace        = flag.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = untraced (end-to-end metrics)")
		traced       = flag.Bool("traced", false, "same as -trace 1")
		scale        = flag.Float64("scale", 1, "multiply every phase length and count (nominal: 40 s per workload)")
		smoke        = flag.Bool("smoke", false, "quick pass: -scale 0.1, one set-up per workload, same metric names")
		selfcheck    = flag.Bool("selfcheck", false, "repeatability check: two interleaved sets of runs against BENCHMARK.json's bounds")
		runs         = flag.Int("runs", 5, "selfcheck: runs per set")
		serverBin    = flag.String("server", "", "path of the built pbtree-server binary (run.sh passes it)")
		work         = flag.String("work", "", "scratch directory inside the checkout (run.sh passes .bench_build)")
		out          = flag.String("out", "", "results directory (default bench/results/<run>)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	if *serverBin == "" || *work == "" {
		fatal("start the benchmark with bench/run.sh: it builds the server and passes -server and -work")
	}
	if *smoke {
		*scale = 0.1
	}
	if *seconds <= 0 {
		*seconds = nominalSeconds * *scale
	}
	if *traced {
		*trace = 1
	}
	names := workloadNames
	if *workloadName != "" {
		names = []string{*workloadName}
	}
	var workloads []*workload
	for _, n := range names {
		w, err := loadWorkload(n)
		if err != nil {
			fatal("%v", err)
		}
		if *smoke {
			w.Reps = 1
		}
		workloads = append(workloads, w)
	}

	if *selfcheck {
		if err := runSelfcheck(workloads, *seed, *seconds, *runs, os.Args[0], *serverBin, *work); err != nil {
			fatal("selfcheck: %v", err)
		}
		return
	}

	// The harness keeps to the first half of the CPUs and pins each
	// server child to the other half, so neither migrates onto the other.
	pinSelf()

	runDir := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fatal("%v", err)
	}
	scratchDir = runDir
	defer os.RemoveAll(runDir)
	mode := "untraced"
	if *trace == 1 {
		mode = "traced"
	}
	if *out == "" {
		*out = filepath.Join("bench", "results", fmt.Sprintf("seed%d-%s-%s", *seed, mode, time.Now().Format("20060102-150405")))
	}
	e := &env{
		serverBin: *serverBin, runDir: runDir, results: *out, seed: *seed, seconds: *seconds,
		host: newHostBlock(runDir, *seed, *seconds/nominalSeconds),
	}
	printHost(os.Stdout, e.host)

	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
	}
	ok := true
	var last *result
	for _, w := range workloads {
		dog := watchdog(170 * time.Second)
		res, err := runWorkload(e, w, *trace == 1)
		dog.Stop()
		if err != nil {
			fatal("%s: %v", w.Name, err)
		}
		res.print(os.Stdout, specs)
		if err := res.save(e.results); err != nil {
			fmt.Fprintf(os.Stderr, "pbtree-bench: result not saved: %v\n", err)
		}
		ok = ok && res.Correct
		last = res
	}
	killAll()
	fmt.Printf("\nresults in %s\n", e.results)
	if *workloadName != "" {
		// The driver's form: the verdict is the line's "correct" field,
		// the exit code says only that a result was produced.
		line, err := last.contractLine(specs)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(line)
		return
	}
	if !ok {
		os.RemoveAll(runDir)
		os.Exit(2)
	}
}

func runWorkload(e *env, w *workload, traced bool) (*result, error) {
	if traced {
		return runLadder(e, w)
	}
	switch w.Kind {
	case "served":
		return runServed(e, w)
	case "embedded":
		return runEmbedded(e, w)
	case "sim":
		return runPaperSim(e, w)
	}
	return nil, fmt.Errorf("workload %s has unknown kind %q", w.Name, w.Kind)
}
