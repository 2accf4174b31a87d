// Command flowcalc computes the flow through a temporal interaction network
// loaded from an interaction file (lines of "from to time qty"; see
// internal/tin's format documentation).
//
// Three addressing modes:
//
//	flowcalc -input net.txt -source 0 -sink 42          # explicit endpoints
//	flowcalc -input net.txt -seed 143                    # §6.2 extraction:
//	    the subgraph of ≤3-hop returning paths around vertex 143, with the
//	    seed split into source and sink (Figure 10)
//	flowcalc -input net.txt -seeds 1,2,143               # batch: the §6.2
//	    extraction + PreSim pipeline for every listed seed, computed on a
//	    worker pool (-seeds all scans every vertex; -workers bounds the pool)
//
// Methods: greedy, lp, teg, pre, presim (default; batch mode is always
// presim). pre and presim are the paper's DAG pipelines with teg as their
// exact engine (presim is what flownetd answers with; lp is the paper's
// baseline, run only when asked for); on a cyclic subgraph (pair
// extractions may be) they fall back to teg and say so.
// Example:
//
//	flowcalc -input transfers.txt.gz -seed 143 -method presim -v
//
// Exit codes: 0 on success, 1 on a runtime failure, 2 on a usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	flownet "flownet"
	"flownet/internal/cli"
	"flownet/internal/core"
)

func main() {
	cli.Exit("flowcalc", run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, loads the network and
// executes one of the three addressing modes, writing results to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("flowcalc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		input   = fs.String("input", "", "interaction file (.txt or .txt.gz)")
		source  = fs.Int("source", -1, "source vertex id")
		sink    = fs.Int("sink", -1, "sink vertex id")
		seed    = fs.Int("seed", -1, "extract the flow subgraph around this seed vertex instead")
		hops    = fs.Int("hops", 3, "max returning-path hops for -seed extraction")
		maxIA   = fs.Int("maxinteractions", 10000, "discard -seed subgraphs above this size (0 = no cap)")
		method  = fs.String("method", "presim", "greedy | lp | teg | pre | presim")
		seeds   = fs.String("seeds", "", "comma-separated seed list (or \"all\"): batch §6.2 extraction + PreSim per seed")
		workers = fs.Int("workers", 0, "worker pool for -seeds batch mode (0 = GOMAXPROCS, 1 = sequential)")
		verbose = fs.Bool("v", false, "print the graph and pipeline details")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return cli.ErrUsage
	}
	if *input == "" {
		fmt.Fprintln(stderr, "flowcalc: -input is required")
		fs.Usage()
		return cli.ErrUsage
	}
	n, err := flownet.LoadNetwork(*input)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "network: %d vertices, %d edges, %d interactions\n",
		n.NumVertices(), n.NumEdges(), n.NumInteractions())

	if *seeds != "" {
		return runBatch(stdout, n, *seeds, *hops, *maxIA, *workers, *verbose)
	}

	var g *flownet.Graph
	switch {
	case *seed >= 0:
		opts := flownet.ExtractOptions{MaxHops: *hops, MaxInteractions: *maxIA}
		sub, ok := n.ExtractSubgraph(flownet.VertexID(*seed), opts)
		if !ok {
			return fmt.Errorf("no returning-path subgraph around seed %d (or above the size cap)", *seed)
		}
		g = sub
		fmt.Fprintf(stdout, "subgraph around seed %d: %d vertices, %d edges, %d interactions\n",
			*seed, g.NumLiveVertices(), g.NumLiveEdges(), g.NumInteractions())
	case *source >= 0 && *sink >= 0:
		sub, ok := n.FlowSubgraphBetween(flownet.VertexID(*source), flownet.VertexID(*sink))
		if !ok {
			return fmt.Errorf("vertex %d cannot reach vertex %d", *source, *sink)
		}
		g = sub
		fmt.Fprintf(stdout, "flow subgraph %d -> %d: %d vertices, %d edges, %d interactions\n",
			*source, *sink, g.NumLiveVertices(), g.NumLiveEdges(), g.NumInteractions())
	default:
		fmt.Fprintln(stderr, "flowcalc: give either -seed, or both -source and -sink")
		fs.Usage()
		return cli.ErrUsage
	}
	if err := g.Validate(); err != nil {
		return err
	}
	if *verbose {
		fmt.Fprint(stdout, g)
	}

	switch *method {
	case "greedy":
		fmt.Fprintf(stdout, "greedy flow: %g\n", flownet.Greedy(g))
		if flownet.GreedySoluble(g) {
			fmt.Fprintln(stdout, "note: graph satisfies Lemma 2 — this is the maximum flow")
		} else {
			fmt.Fprintln(stdout, "note: graph is not greedy-soluble — this is only a lower bound")
		}
	case "lp":
		f, err := flownet.MaxFlowLP(g)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "maximum flow (LP baseline): %g\n", f)
	case "teg":
		fmt.Fprintf(stdout, "maximum flow (time-expanded Dinic): %g\n", flownet.MaxFlowTEG(g))
	case "pre", "presim":
		// presim's answer, or the cyclic fallback of either method.
		res := core.Solve(g)
		if *method == "pre" && !res.Cyclic {
			var err error
			if res, err = core.Pre(g, core.EngineTEG); err != nil {
				return err
			}
		}
		if res.Cyclic {
			fmt.Fprintln(stdout, "note: subgraph is cyclic; pre/presim require DAGs — falling back to teg")
			fmt.Fprintf(stdout, "maximum flow (time-expanded Dinic): %g\n", res.Flow)
			return nil
		}
		fmt.Fprintf(stdout, "maximum flow (%s): %g\n", *method, res.Flow)
		if *verbose {
			fmt.Fprintf(stdout, "class: %s\n", res.Class)
			fmt.Fprintf(stdout, "preprocessing removed: %d interactions, %d edges, %d vertices\n",
				res.Pre.Interactions, res.Pre.Edges, res.Pre.Vertices)
			if *method == "presim" {
				fmt.Fprintf(stdout, "simplification: %d chains reduced, %d vertices removed\n",
					res.Sim.ChainsReduced, res.Sim.Vertices)
			}
			if res.UsedEngine {
				fmt.Fprintln(stdout, "exact engine ran (time-expanded Dinic on the reduced graph)")
			} else {
				fmt.Fprintln(stdout, "exact engine not needed (solved greedily)")
			}
		}
	default:
		fmt.Fprintf(stderr, "flowcalc: unknown method %q\n", *method)
		return cli.ErrUsage
	}
	return nil
}

// runBatch is the -seeds mode: the §6.2 per-seed experiment (extraction +
// PreSim) over many seeds at once, computed with flownet.BatchFlowSeeds on
// a bounded worker pool.
func runBatch(stdout io.Writer, n *flownet.Network, list string, hops, maxIA, workers int, verbose bool) error {
	var ids []flownet.VertexID
	if list == "all" {
		ids = make([]flownet.VertexID, n.NumVertices())
		for i := range ids {
			ids[i] = flownet.VertexID(i)
		}
	} else {
		for _, part := range strings.Split(list, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 0 || v >= n.NumVertices() {
				return fmt.Errorf("bad seed %q (vertex ids are 0..%d)", part, n.NumVertices()-1)
			}
			ids = append(ids, flownet.VertexID(v))
		}
	}
	opts := flownet.ExtractOptions{MaxHops: hops, MaxInteractions: maxIA}
	t0 := time.Now()
	results, err := flownet.BatchFlowSeeds(n, ids, opts, flownet.BatchOptions{Workers: workers})
	if err != nil {
		return err
	}
	solved := 0
	total := 0.0
	for _, r := range results {
		if !r.Ok {
			if verbose {
				fmt.Fprintf(stdout, "seed %-8d no returning-path subgraph (or above the size cap)\n", r.Seed)
			}
			continue
		}
		solved++
		total += r.Flow
		fmt.Fprintf(stdout, "seed %-8d flow %-12g class %s\n", r.Seed, r.Flow, r.Class)
	}
	fmt.Fprintf(stdout, "%d/%d seeds with a flow subgraph, total flow %g, in %v\n",
		solved, len(ids), total, time.Since(t0).Round(time.Millisecond))
	return nil
}
