package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// loadBenchmarkFile reads BENCHMARK.json from the working directory
// (the root of the checkout).
func loadBenchmarkFile() (*benchmarkFile, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative = better).
func worsening(a, b float64, better string) float64 {
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		return -d
	}
	return d
}

// runSelfcheck runs the untraced benchmark in two interleaved sets (A B
// A B ...) of `runs` runs each, a fresh process per run and seed+i for
// the i-th run of either set, and compares the sets' medians against
// the bounds in BENCHMARK.json. It prints, as a markdown table, the
// numbers REPEATABILITY.md commits.
func runSelfcheck(workloads []*workload, seed int64, seconds float64, runs int, self, serverBin, work string) error {
	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	for s := range values {
		values[s] = map[string]map[string][]float64{}
	}
	var problems []string
	for i := 0; i < runs; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				cmd := exec.Command(self, "-server", serverBin, "-work", work, "-workload", w.Name,
					"-seed", fmt.Sprint(seed+int64(i)), "-seconds", fmt.Sprint(seconds), "-trace", "0")
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s run %d of set %c: %w", w.Name, i, 'A'+set, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var r contractResult
				if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
					return fmt.Errorf("%s: last line is not a result: %w", w.Name, err)
				}
				tag := fmt.Sprintf("%s set %c run %d (seed %d)", w.Name, 'A'+set, i, seed+int64(i))
				if !r.Correct || r.Failed*1000 >= r.Attempted {
					problems = append(problems, fmt.Sprintf("%s: correct=%v failed=%d of %d", tag, r.Correct, r.Failed, r.Attempted))
				}
				if bytes.Contains(out, []byte("generator_bound=true")) {
					problems = append(problems, tag+": generator_bound")
				}
				if values[set][w.Name] == nil {
					values[set][w.Name] = map[string][]float64{}
				}
				for name, m := range r.Metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: %s done\n", tag)
			}
		}
	}

	fmt.Printf("| workload | metric | bound | set | median | q1 | q3 | min | max | iqr/median | B worse than A |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		for _, spec := range bf.EndToEnd {
			a, b := values[0][w.Name][spec.Name], values[1][w.Name][spec.Name]
			gap := worsening(median(a), median(b), spec.Better)
			for set, v := range [][]float64{a, b} {
				s := sortedCopy(v)
				q1, _, q3 := quartiles(v)
				last := ""
				if set == 1 {
					last = fmt.Sprintf("%+.2f%%", 100*gap)
				}
				fmt.Printf("| %s | %s | %.2f | %c | %.4g | %.4g | %.4g | %.4g | %.4g | %.2f%% | %s |\n",
					w.Name, spec.Name, spec.Bound, 'A'+set, median(v), q1, q3, s[0], s[len(s)-1], 100*iqrShare(v), last)
				if spread := iqrShare(v); spec.Name != "setup_s" && spread > spec.Bound {
					problems = append(problems, fmt.Sprintf("%s/%s set %c: spread %.2f%% over bound %.0f%%", w.Name, spec.Name, 'A'+set, 100*spread, 100*spec.Bound))
				}
			}
			if math.Abs(gap) > spec.Bound {
				problems = append(problems, fmt.Sprintf("%s/%s: set medians differ by %.2f%%, bound %.0f%%", w.Name, spec.Name, 100*gap, 100*spec.Bound))
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problems:\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	fmt.Println("\nselfcheck passed: every spread and every gap between set medians is within its bound")
	return nil
}
