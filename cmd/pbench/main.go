// Command pbench regenerates the tables and figures of "Improving
// Index Performance through Prefetching" (Chen, Gibbons, Mowry;
// SIGMOD 2001) on the simulated memory hierarchy.
//
// Usage:
//
//	pbench -list
//	pbench -fig fig7 -scale 0.1
//	pbench -fig fig10,fig11 -scale 1
//	pbench -fig all -json > results.json
//	pbench -fig attr -trace trace.jsonl
//
// -scale 1 reproduces paper-sized workloads (10M-key trees, 100K
// operations); the default 0.1 runs the same shapes in seconds. All
// reported times are simulated cycles, deterministic for a given seed.
//
// -json replaces the text tables on stdout with one machine-readable
// JSON document (exp.RunSet). -trace dumps every memory event of every
// experiment as a Chrome trace (load it at chrome://tracing or
// ui.perfetto.dev). -cpuprofile/-memprofile write pprof profiles of
// the simulator itself.
//
// A failing experiment no longer aborts the run: pbench reports it,
// continues with the remaining ids, prints a summary, and exits
// nonzero at the end.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pbtree/internal/exp"
	"pbtree/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		figs       = flag.String("fig", "all", "comma-separated experiment ids, or 'all'")
		scale      = flag.Float64("scale", 0.1, "workload scale factor (1 = paper size)")
		seed       = flag.Int64("seed", 1, "workload random seed")
		list       = flag.Bool("list", false, "list available experiments and exit")
		jsonOut    = flag.Bool("json", false, "emit results as JSON on stdout instead of text tables")
		tracePath  = flag.String("trace", "", "write a Chrome trace of all memory events to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.Experiments() {
			fmt.Printf("%-11s %s\n", e.ID, e.Brief)
		}
		return 0
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	opts := exp.Options{Scale: *scale, Seed: *seed}

	var tw *obs.TraceWriter
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		tw = obs.NewTraceWriter(f)
		opts.Probe = tw
		opts.Trace = tw
	}

	var ids []string
	if *figs == "all" {
		for _, e := range exp.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*figs, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	rs := exp.RunSet{Scale: *scale, Seed: *seed}
	var completed, failed []string
	for _, id := range ids {
		start := time.Now()
		tables, err := runOne(id, opts)
		res := exp.Result{ID: id, WallSeconds: time.Since(start).Seconds(), Tables: tables}
		if err != nil {
			res.Err = err.Error()
			failed = append(failed, id)
			fmt.Fprintf(os.Stderr, "pbench: %s failed: %v (continuing)\n", id, err)
		} else {
			completed = append(completed, id)
			if !*jsonOut {
				for _, t := range tables {
					t.Fprint(os.Stdout)
				}
			}
			fmt.Fprintf(os.Stderr, "[%s: %.1fs wall]\n", id, res.WallSeconds)
		}
		rs.Results = append(rs.Results, res)
	}

	if *jsonOut {
		if err := rs.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "pbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "[trace: %d events -> %s]\n", tw.Events(), *tracePath)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "pbench: %d/%d experiments completed (%s); failed: %s\n",
			len(completed), len(ids), strings.Join(completed, ","), strings.Join(failed, ","))
		return 1
	}
	return 0
}

// runOne runs a single experiment, converting a panic (how experiments
// report internal inconsistencies) into an error so one bad id cannot
// take down the rest of the run.
func runOne(id string, opts exp.Options) (tables []exp.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return exp.Run(id, opts)
}
