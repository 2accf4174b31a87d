// Command flowbench is the repository's benchmark: it generates its
// corpora, boots the real flownetd built from the working tree, drives it
// with closed-loop query clients (and an open-loop writer) whose operations
// derive from the seed, checks the answers against the root package
// in-process, and prints every metric by name with its unit.
//
//	bash benchmark/run.sh --workload point_lookup --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -seed 1            # all four workloads, traced
//	bash benchmark/run.sh -selfcheck         # two sets of five seeds; compare against the bounds
//	bash benchmark/run.sh -list-ops pair_heavy -seed 1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
)

// output is the last line of a single-workload run.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four, one after another)")
		seed         = flag.Int64("seed", 1, "seed of every op stream (the corpus is fixed, like the paper's datasets)")
		seconds      = flag.Int("seconds", 10, "length of the measured phase")
		trace        = flag.Int("trace", -1, "0: end-to-end metrics only; 1: also the traced passes and probes (default 1 without -workload)")
		flownetd     = flag.String("flownetd", "", "flownetd binary to boot (default: go build ./cmd/flownetd)")
		selfcheck    = flag.Bool("selfcheck", false, "run every workload in two sets of five seeds and compare the two against the bounds in BENCHMARK.json")
		listOps      = flag.String("list-ops", "", "print the first 100 operations of each of the named workload's streams and exit")
		keepAwake    = flag.Bool("keep-awake", false, "internal: be the keep-awake helper, which the benchmark starts itself")
	)
	flag.Parse()
	if *keepAwake {
		keepAwakeMain()
		return
	}
	if flag.NArg() > 0 {
		fail(2, fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds < 1 {
		fail(2, errors.New("-seconds must be at least 1"))
	}
	if *listOps != "" {
		if err := printOps(*listOps, *seed); err != nil {
			fail(2, err)
		}
		return
	}
	selected := workloads
	if *workloadName != "" {
		wl, err := workloadByName(*workloadName)
		if err != nil {
			fail(2, err)
		}
		selected = []*workload{wl}
	}

	e, err := newEnv(*flownetd)
	if err != nil {
		fail(1, err)
	}
	e.cleanupOnSignal()
	e.keepAwake()
	code := func() int {
		defer e.cleanup()
		ctx := context.Background()
		cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace != 0}
		if *selfcheck {
			return selfCheck(ctx, e, selected, cfg)
		}
		if *workloadName == "" {
			return runAll(ctx, e, selected, cfg)
		}
		cfg.Trace = *trace == 1
		cfg.Workload = selected[0]
		return runOne(ctx, e, cfg)
	}()
	os.Exit(code)
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "flowbench:", err)
	os.Exit(code)
}

// runOne runs one workload and prints the table and then the result line
// the driver reads. Without a complete, valid set of metrics it prints no
// result line and exits non-zero.
func runOne(ctx context.Context, e *env, cfg runConfig) int {
	m, err := runWorkload(ctx, e, cfg)
	m.print(os.Stdout)
	specs, got := endToEnd, m.E2E
	if cfg.Trace {
		specs, got = perLayer, m.Layer
	}
	if err == nil {
		err = m.complete(specs, got)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowbench:", cfg.Workload.Name+":", err)
		return 1
	}
	line, err := json.Marshal(output{Correct: len(m.Violations) == 0, Attempted: m.Attempted, Failed: m.Failed, Metrics: got})
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowbench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if len(m.Violations) > 0 || m.Failed > 0 {
		return 1
	}
	return 0
}

// runAll runs the workloads one after another and prints each table; it
// exits non-zero if any operation failed or any answer was wrong.
func runAll(ctx context.Context, e *env, wls []*workload, cfg runConfig) int {
	code := 0
	for _, wl := range wls {
		cfg.Workload = wl
		m, err := runWorkload(ctx, e, cfg)
		m.print(os.Stdout)
		if err == nil {
			err = m.complete(endToEnd, m.E2E)
		}
		if err == nil && cfg.Trace {
			err = m.complete(perLayer, m.Layer)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "flowbench:", wl.Name+":", err)
			code = 1
		}
		if len(m.Violations) > 0 || m.Failed > 0 {
			code = 1
		}
	}
	return code
}

// listOpsCount is how many operations of each stream -list-ops prints.
const listOpsCount = 100

// printOps dumps the head of every stream of a workload, one operation per
// line, so that two seeds (or two versions of the benchmark) can be diffed.
func printOps(name string, seed int64) error {
	wl, err := workloadByName(name)
	if err != nil {
		return err
	}
	net := wl.generate()
	shape := corpusShape{NumV: net.NumVertices(), MaxTime: net.MaxTime()}
	clients := make([]int, wl.Clients)
	for i := range clients {
		clients[i] = i
	}
	if wl.IngestPerSec > 0 {
		clients = append(clients, writerStream)
	}
	for _, c := range append(clients, traceStream) {
		s := newOpStream(seed, wl, c, shape)
		for i := 0; i < listOpsCount; i++ {
			fmt.Printf("%s seed=%d stream=%d op=%d %s\n", wl.Name, seed, c, i, s.next())
		}
	}
	return nil
}
