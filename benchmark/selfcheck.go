package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// This file is -selfcheck: the benchmark judging its own steadiness the way
// the driver will. It runs every workload in two sets on the same build and
// compares, per (metric, workload), the two medians against the metric's
// bound, and each set's quartile spread against it too. It is also how the
// bounds in BENCHMARK.json were first measured.

// benchFile is BENCHMARK.json.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchFile(root string) (*benchFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}

// exactCounts are the per-layer counts that must repeat exactly when the
// same seed runs twice. seedCounts, the ones read off the seed's own
// operations, must also differ between seeds (store.wal_appends does not:
// the writer sends 8 batches a second whatever the seed).
var (
	seedCounts = []string{
		"core.class_share.A", "core.class_share.B", "core.class_share.C", "core.engine_used_share",
		"tin.subgraph_interactions_p50", "tin.subgraph_interactions_p99", "tin.extract_seed_allocs_per_op",
	}
	exactCounts = append([]string{"store.wal_appends"}, seedCounts...)
)

// selfcheckRuns is the number of runs, each with another seed, in each of
// the two sets -selfcheck compares (the driver uses ten).
const selfcheckRuns = 5

// worseBy returns how much worse b is than a, as a share of a, given which
// direction is better. Negative means b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfCheck runs two sets of selfcheckRuns traced runs per workload (seeds
// seed, seed+1, ...; both sets use the same seeds) and prints the
// comparison. It returns the exit code: non-zero if any operation failed,
// any answer was wrong, two medians of a gated metric differ by more than
// its bound, a spread exceeds its bound, an exact count did not repeat, or
// a seed-dependent count is the same for every seed.
func selfCheck(ctx context.Context, e *env, wls []*workload, cfg runConfig) int {
	const runs = selfcheckRuns
	cfg.Trace = true // the exact counts are per-layer metrics
	bf, err := readBenchFile(e.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowbench:", err)
		return 1
	}
	code := 0
	type key struct{ workload, metric string }
	values := [2]map[key][]float64{{}, {}}
	counts := [2]map[key][]float64{{}, {}}
	for set := 0; set < 2; set++ {
		for _, wl := range wls {
			for i := 0; i < runs; i++ {
				c := cfg
				c.Workload, c.Seed = wl, cfg.Seed+int64(i)
				m, err := runWorkload(ctx, e, c)
				if err == nil {
					err = m.complete(endToEnd, m.E2E)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "flowbench: set %d %s seed %d: %v\n", set+1, wl.Name, c.Seed, err)
					return 1
				}
				if m.Failed > 0 || len(m.Violations) > 0 {
					m.print(os.Stdout)
					code = 1
				}
				for name, v := range m.E2E {
					values[set][key{wl.Name, name}] = append(values[set][key{wl.Name, name}], v.Value)
				}
				for _, name := range exactCounts {
					if v, ok := m.Layer[name]; ok {
						counts[set][key{wl.Name, name}] = append(counts[set][key{wl.Name, name}], v.Value)
					}
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d done\n", set+1, wl.Name, c.Seed)
			}
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tset 1\tset 2\tworse by\tspread 1\tspread 2\tbound\tverdict")
	for _, wl := range wls {
		for _, spec := range bf.EndToEnd {
			k := key{wl.Name, spec.Name}
			a, b := runsMedian(values[0][k]), runsMedian(values[1][k])
			w, s1, s2 := worseBy(a, b, spec.Better), spread(values[0][k]), spread(values[1][k])
			verdict := "ok"
			if w > spec.Bound {
				verdict = "MEDIANS DIFFER"
				code = 1
			} else if spec.Name != "setup_s" && (s1 > spec.Bound || s2 > spec.Bound) {
				verdict = "SPREAD TOO WIDE"
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.Name, spec.Name, a, b, 100*w, 100*s1, 100*s2, 100*spec.Bound, verdict)
		}
	}
	tw.Flush()
	for k, a := range counts[0] {
		b := counts[1][k]
		for i := range a {
			if a[i] != b[i] {
				fmt.Printf("COUNT DID NOT REPEAT: %s %s seed %d: %v then %v\n", k.workload, k.metric, cfg.Seed+int64(i), a[i], b[i])
				code = 1
			}
		}
	}
	// A count that follows the seed's operations takes more than one value
	// over the seeds of a set, on some workload at least (on pair_heavy
	// every subgraph is the same giant component whatever the seed).
	for _, name := range seedCounts {
		varies := false
		for _, wl := range wls {
			for _, v := range counts[0][key{wl.Name, name}] {
				varies = varies || v != counts[0][key{wl.Name, name}][0]
			}
		}
		if !varies {
			fmt.Printf("COUNT DOES NOT FOLLOW THE SEED: %s is the same for all %d seeds on every workload\n", name, runs)
			code = 1
		}
	}
	return code
}
