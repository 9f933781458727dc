package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec is one entry of BENCHMARK.json's metric lists.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// endToEnd lists the end-to-end metrics every workload reports, with
// their units. BENCHMARK.json names the same ones; a test keeps the two
// lists equal. lat_p99_us is measured and printed by every untraced run
// too, but carries no bound (REPEATABILITY.md says why): its bounded
// form would reject the benchmark's own reruns.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "seq_p50_us", Unit: "us", Better: "lower"},
	{Name: "lat_p50_us", Unit: "us", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "sim_search_speedup", Unit: "ratio", Better: "higher"},
	{Name: "sim_scan_speedup", Unit: "ratio", Better: "higher"},
}

// result is what one workload's run produced.
type result struct {
	Workload       string               `json:"workload"`
	Traced         bool                 `json:"traced"`
	Correct        bool                 `json:"correct"`
	Attempted      int64                `json:"attempted"`
	Failed         int64                `json:"failed"`
	Retried        int64                `json:"retried"`
	GeneratorBound bool                 `json:"generator_bound"`
	Metrics        map[string]metric    `json:"metrics"`
	Samples        map[string]int       `json:"samples"` // sample count behind each percentile
	Detail         map[string]float64   `json:"detail"`  // extra numbers for the reader, no contract
	Series         map[string][]float64 `json:"series"`  // the per-lifetime or per-slice values a metric was combined from
	Notes          []string             `json:"notes"`
	Host           hostBlock            `json:"host"`
}

func newResult(w *workload, traced bool, host hostBlock) *result {
	return &result{
		Workload: w.Name, Traced: traced, Correct: true, Host: host,
		Metrics: map[string]metric{}, Samples: map[string]int{}, Detail: map[string]float64{},
		Series: map[string][]float64{},
	}
}

func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.note("%s not reported: not a number", name)
		return
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// combine sets an end-to-end metric from its per-lifetime or per-slice
// values (quietMean), keeps the values, and adds their extremes and
// median to the detail lines so the reader sees what the run spanned.
func (r *result) combine(name string, v []float64) {
	for _, spec := range endToEnd {
		if spec.Name != name {
			continue
		}
		r.set(name, spec.Unit, quietMean(v, spec.Better))
		r.Series[name] = v
		if _, counted := r.Samples[name]; !counted {
			r.Samples[name] = len(v)
		}
		if s := sortedCopy(v); len(s) > 0 {
			r.Detail[name+"_min"], r.Detail[name+"_median"], r.Detail[name+"_max"] = s[0], median(s), s[len(s)-1]
		}
		return
	}
	panic("combine: " + name + " is not an end-to-end metric")
}

// unbounded reports a number that is measured and printed but is not
// one of the contract's metrics of this run.
func (r *result) unbounded(name, unit string, v float64) {
	if _, listed := r.Metrics[name]; !listed && !r.Traced {
		r.Detail[name] = v
		return
	}
	r.set(name, unit, v)
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// incorrect marks the run's outputs wrong and says why.
func (r *result) incorrect(format string, args ...any) {
	r.Correct = false
	r.note("INCORRECT: "+format, args...)
}

// count folds one phase's tallies into the run's.
func (r *result) count(rec *recorder, phase string) {
	r.Attempted += rec.attempted
	r.Failed += rec.failed + rec.wrong
	r.Retried += rec.retries
	if rec.wrong > 0 {
		r.incorrect("%s: %d wrong answers (first: %s)", phase, rec.wrong, rec.firstErr)
	} else if rec.failed > 0 {
		r.note("%s: %d of %d ops failed (first: %s)", phase, rec.failed, rec.attempted, rec.firstErr)
	}
}

// latency sets a p50 metric and, when p99Name is given, a p99 metric.
func (r *result) latency(p50Name, p99Name string, samples []float64) {
	r.set(p50Name, "us", median(samples))
	r.Samples[p50Name] = len(samples)
	if p99Name != "" {
		r.p99(p99Name, samples)
	}
}

// p99 reports the 99th percentile of samples under name, given enough
// of them.
func (r *result) p99(name string, samples []float64) {
	r.Samples[name] = len(samples)
	if v, ok := p99(samples); ok {
		r.unbounded(name, "us", v)
	} else {
		r.note("%s not reported: %d samples, need %d", name, len(samples), minP99Samples)
	}
}

// contractResult is the last line a single-workload run prints: the
// form the benchmark driver reads.
type contractResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// contractLine renders the run as a contractResult holding exactly the
// metrics of specs.
func (r *result) contractLine(specs []metricSpec) (string, error) {
	out := contractResult{r.Correct, max(r.Attempted, 1), r.Failed, map[string]metric{}}
	for _, s := range specs {
		m, ok := r.Metrics[s.Name]
		if !ok {
			return "", fmt.Errorf("workload %s did not produce metric %s", r.Workload, s.Name)
		}
		out.Metrics[s.Name] = m
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// print writes the human-readable report of one workload.
func (r *result) print(w io.Writer, specs []metricSpec) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s)  correct=%v attempted=%d failed=%d retried=%d generator_bound=%v\n",
		r.Workload, mode, r.Correct, r.Attempted, r.Failed, r.Retried, r.GeneratorBound)
	for _, s := range specs {
		m, ok := r.Metrics[s.Name]
		if !ok {
			fmt.Fprintf(w, "  %-32s (not produced)\n", s.Name)
			continue
		}
		line := fmt.Sprintf("  %-32s %14.4f %-6s", s.Name, m.Value, m.Unit)
		if n, ok := r.Samples[s.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(w, line)
	}
	var extra []string
	for k := range r.Detail {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		line := fmt.Sprintf("  . %-30s %14.4f", k, r.Detail[k])
		if n, ok := r.Samples[k]; ok {
			line += fmt.Sprintf("        n=%d", n)
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func printHost(w io.Writer, h hostBlock) {
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS harness %d / server %d, pinned %v to CPUs %v / %v, %d conns, %s, linux %s, commit %s\n",
		h.CPUModel, h.NProc, h.HarnessMaxProcs, h.ServerMaxProcs, h.Pinned, h.HarnessCPUs, h.ServerCPUs, h.Conns, h.GoVersion, h.Kernel, h.Commit)
	fmt.Fprintf(w, "run: seed %d, scale %.3f, data dir %s (%s), 1 ms sleep takes %.0f us (paper: search speed-up 1.27-1.55, scan speed-up 6.5-8.7)\n",
		h.Seed, h.Scale, h.DataDir, h.DataDirFS, h.Sleep1msP50US)
}

// save writes the full result as JSON into the run's results directory.
func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := "result-" + r.Workload + ".json"
	if r.Traced {
		name = "layers-" + r.Workload + ".json"
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
