// Command repro regenerates every table and figure of the evaluation
// section of "Flow Computation in Temporal Interaction Networks" (Kosyfaki
// et al., ICDE 2021) on the synthetic stand-in datasets:
//
//	Table 4   dataset statistics
//	Table 5   subgraph corpus statistics
//	Table 6   flow computation runtimes, Bitcoin
//	Table 7   flow computation runtimes, CTU-13
//	Table 8   flow computation runtimes, Prosper Loans
//	Figure 11 runtimes vs interaction-count bucket, all datasets
//	Table 9   pattern search, Bitcoin
//	Table 10  pattern search, CTU-13
//	Table 11  pattern search, Prosper Loans
//
// Absolute times differ from the paper (hardware, Go vs C, our simplex vs
// lpsolve); the reproduced result is the shape: Greedy ≪ PreSim ≤ Pre ≪ LP,
// class A ≈ free, and PB ≫ GB on precomputable patterns. See EXPERIMENTS.md.
//
// Usage:
//
//	repro [-quick] [-dataset all|bitcoin|ctu13|prosper] [-exp all|4|5|6|7|8|9|10|11|fig11]
//	      [-vertices N] [-seed S] [-lpsample K] [-lpmax N] [-maxinstances M] [-workers W]
//
// -workers parallelizes the per-seed subgraph extraction (§6.2) and the
// per-instance flow computations of the pattern searches (Tables 9–11);
// results are identical for every worker count. The per-subgraph runtime
// measurements of Tables 6–8 and Figure 11 always run sequentially — they
// time individual calls.
//
// Exit codes: 0 on success, 1 on a runtime failure, 2 on a usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"flownet/internal/bench"
	"flownet/internal/cli"
	"flownet/internal/datagen"
	"flownet/internal/tin"
)

func main() {
	cli.Exit("repro", run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, generates the selected
// datasets and prints the selected tables to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataset      = fs.String("dataset", "all", "bitcoin | ctu13 | prosper | all")
		exp          = fs.String("exp", "all", "experiment: all | 4 | 5 | 6 | 7 | 8 | 9 | 10 | 11 | fig11")
		vertices     = fs.Int("vertices", 0, "override dataset vertex count (0 = dataset default)")
		seed         = fs.Int64("seed", 0, "generator seed")
		quick        = fs.Bool("quick", false, "small sizes for a fast end-to-end run")
		lpSample     = fs.Int("lpsample", 25, "raw-LP sample size per class/bucket (0 = all)")
		lpMax        = fs.Int("lpmax", 2000, "skip raw LP above this many interactions (0 = no cap)")
		maxInstances = fs.Int64("maxinstances", 100000, "pattern-search instance cut-off (0 = exhaustive)")
		maxSubgraphs = fs.Int("maxsubgraphs", 0, "cap the subgraph corpus size (0 = all seeds)")
		workers      = fs.Int("workers", 0, "worker pool for extraction and pattern search (0 = GOMAXPROCS, 1 = sequential)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return cli.ErrUsage
	}

	datasets := pickDatasets(*dataset)
	if datasets == nil {
		fmt.Fprintf(stderr, "repro: unknown dataset %q\n", *dataset)
		return cli.ErrUsage
	}

	for _, d := range datasets {
		cfg := datagen.Config{Vertices: *vertices, Seed: *seed}
		if *quick && *vertices == 0 {
			cfg.Vertices = quickVertices(d)
		}
		start := time.Now()
		n := datagen.Generate(d, cfg)
		fmt.Fprintf(stdout, "== %s: %d vertices, %d edges, %d interactions (generated in %v)\n",
			d, n.NumVertices(), n.NumEdges(), n.NumInteractions(), time.Since(start).Round(time.Millisecond))

		if runExp(*exp, "4") {
			printTable4(stdout, n, d)
		}

		var corpus []bench.Subgraph
		needCorpus := runExp(*exp, "5") || runExp(*exp, flowTable(d)) || runExp(*exp, "fig11")
		if needCorpus {
			start = time.Now()
			corpus = bench.BuildCorpus(n, bench.CorpusOptions{
				Extract:      tin.DefaultExtractOptions(),
				MaxSubgraphs: *maxSubgraphs,
				Workers:      *workers,
			})
			fmt.Fprintf(stdout, "-- corpus: %d subgraphs (extracted in %v)\n",
				len(corpus), time.Since(start).Round(time.Millisecond))
		}
		if runExp(*exp, "5") {
			fmt.Fprintln(stdout, "\nTable 5 (subgraph statistics)")
			bench.PrintTable5(stdout, d.String(), bench.Stats(corpus))
		}
		fopts := bench.FlowBenchOptions{LPSampleLimit: *lpSample, LPMaxInteractions: *lpMax}
		if runExp(*exp, flowTable(d)) {
			rep, err := bench.RunFlowBench(corpus, fopts)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout)
			rep.Print(stdout, fmt.Sprintf("Table %s (avg msec per subgraph, %s)", flowTable(d), d))
		}
		if runExp(*exp, "fig11") {
			rep, err := bench.RunBucketBench(corpus, fopts)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout)
			rep.Print(stdout, fmt.Sprintf("Figure 11 (%s): avg msec by #interactions", d))
		}
		if runExp(*exp, patternTable(d)) {
			popts := bench.PatternBenchOptions{
				WithChains:   d == datagen.DatasetProsper, // as in the paper
				MaxInstances: *maxInstances,
				Workers:      *workers,
			}
			rep, err := bench.RunPatternBench(n, popts)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout)
			rep.Print(stdout, fmt.Sprintf("Table %s (pattern search, %s)", patternTable(d), d))
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

func pickDatasets(s string) []datagen.Dataset {
	switch strings.ToLower(s) {
	case "all":
		return datagen.AllDatasets
	case "bitcoin":
		return []datagen.Dataset{datagen.DatasetBitcoin}
	case "ctu13", "ctu-13", "ctu":
		return []datagen.Dataset{datagen.DatasetCTU13}
	case "prosper":
		return []datagen.Dataset{datagen.DatasetProsper}
	default:
		return nil
	}
}

func quickVertices(d datagen.Dataset) int {
	switch d {
	case datagen.DatasetBitcoin:
		return 3000
	case datagen.DatasetCTU13:
		return 3000
	default:
		return 800
	}
}

// flowTable maps a dataset to its Table 6–8 number; patternTable to 9–11.
func flowTable(d datagen.Dataset) string {
	return []string{"6", "7", "8"}[int(d)]
}

func patternTable(d datagen.Dataset) string {
	return []string{"9", "10", "11"}[int(d)]
}

func runExp(sel, id string) bool {
	if sel == "all" {
		return true
	}
	for _, part := range strings.Split(sel, ",") {
		if strings.TrimSpace(part) == id {
			return true
		}
	}
	return false
}

func printTable4(w io.Writer, n *tin.Network, d datagen.Dataset) {
	st := n.Stats()
	fmt.Fprintln(w, "\nTable 4 (dataset statistics)")
	fmt.Fprintf(w, "%-16s %10s %10s %14s %12s\n", "dataset", "#nodes", "#edges", "#interactions", "avg qty")
	fmt.Fprintf(w, "%-16s %10d %10d %14d %12.2f\n", d, st.Vertices, st.Edges, st.Interactions, st.AvgQty)
}
