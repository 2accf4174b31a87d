package main

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"

	"flownet/internal/bench"
	"flownet/internal/cli"
	"flownet/internal/core"
	"flownet/internal/datagen"
	"flownet/internal/tin"
)

func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errb bytes.Buffer
	err := run(args, &out, &errb)
	return out.String(), errb.String(), err
}

func TestUsageErrors(t *testing.T) {
	for name, tc := range map[string][]string{
		"unknown flag":    {"-nosuchflag"},
		"unknown dataset": {"-dataset", "nope"},
	} {
		if _, _, err := runCLI(t, tc...); !errors.Is(err, cli.ErrUsage) {
			t.Errorf("%s: err = %v, want cli.ErrUsage", name, err)
		}
	}
}

// TestQuickShapeClaims is the end-to-end smoke test (about three seconds)
// and the machine check of the paper's shape claims in the form that does
// not depend on a clock, on each dataset's quick corpus (Bitcoin at 300
// vertices): every table prints, the flow table and Figure 11 carry the
// Solve column (what the service runs) beside the paper's methods, no
// method disagrees on any flow (Tables 6–8 verify LP ≡ Pre ≡ PreSim ≡ Solve
// on every sampled subgraph, the last three on every subgraph), GB and PB
// agree on every untruncated pattern row, and on every class-C subgraph
// the LP the exact engine is handed shrinks along raw ≥ Pre ≥ PreSim — the
// mechanism behind "Greedy ≪ PreSim ≤ Pre ≪ LP".
func TestQuickShapeClaims(t *testing.T) {
	for _, c := range []struct {
		d        datagen.Dataset
		name     string
		vertices int
	}{
		{datagen.DatasetProsper, "prosper", quickVertices(datagen.DatasetProsper)},
		{datagen.DatasetCTU13, "ctu13", quickVertices(datagen.DatasetCTU13)},
		{datagen.DatasetBitcoin, "bitcoin", 300},
	} {
		t.Run(c.name, func(t *testing.T) {
			stdout, stderr, err := runCLI(t, "-quick", "-dataset", c.name, "-vertices", strconv.Itoa(c.vertices))
			if err != nil {
				t.Fatalf("run: %v\n%s", err, stderr)
			}
			wants := []string{"Table 4", "Table 5", "Table " + flowTable(c.d), "Figure 11", "Table " + patternTable(c.d), "Class C (", "RP3"}
			for _, want := range wants {
				if !strings.Contains(stdout, want) {
					t.Errorf("stdout missing %q:\n%s", want, stdout)
				}
			}
			solveColumns := 0
			for _, line := range strings.Split(stdout, "\n") {
				if f := strings.Fields(line); len(f) > 1 && f[len(f)-2] == "PreSim" && f[len(f)-1] == "Solve" {
					solveColumns++
				}
			}
			if solveColumns != 2 {
				t.Errorf("%d tables end in the columns PreSim, Solve; want Table %s and Figure 11:\n%s", solveColumns, flowTable(c.d), stdout)
			}
			for _, bad := range []string{"WARNING", "MISMATCH"} {
				if strings.Contains(stdout, bad) {
					t.Errorf("stdout reports a %s:\n%s", bad, stdout)
				}
			}

			// The same dataset and corpus the run above printed.
			n := datagen.Generate(c.d, datagen.Config{Vertices: c.vertices})
			corpus := bench.BuildCorpus(n, bench.CorpusOptions{Extract: tin.DefaultExtractOptions()})
			classC := 0
			for _, s := range corpus {
				if s.Class != core.ClassC {
					continue
				}
				classC++
				raw := core.BuildLP(s.G).Prob.NumVars()
				pre, err := core.Pre(s.G, core.EngineLP)
				if err != nil {
					t.Fatal(err)
				}
				sim, err := core.PreSim(s.G, core.EngineLP)
				if err != nil {
					t.Fatal(err)
				}
				if raw < pre.LPVariables || pre.LPVariables < sim.LPVariables {
					t.Errorf("seed %d: LP variables raw %d, Pre %d, PreSim %d; want raw >= Pre >= PreSim",
						s.Seed, raw, pre.LPVariables, sim.LPVariables)
				}
			}
			if classC == 0 {
				t.Fatalf("the quick %s corpus has no class-C subgraph; the LP-size check is vacuous", c.d)
			}
		})
	}
}
