package main

import (
	"bytes"
	"errors"
	"flag"
	"flownet/internal/cli"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeNet writes a small interaction file and returns its path. The
// network is a 0<->1 exchange: 0->1 (t1,q5), 1->0 (t2,q4), 0->1 (t3,q3),
// so pair flow 0->1 is 8, seed 0's returning flow is 4 and seed 1's is 3.
func writeNet(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "net.txt")
	if err := os.WriteFile(path, []byte("0 1 1 5\n1 0 2 4\n0 1 3 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCLI invokes run and returns (stdout, stderr, err).
func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errb bytes.Buffer
	err := run(args, &out, &errb)
	return out.String(), errb.String(), err
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range [][]string{
		{},                          // no -input
		{"-nosuchflag"},             // unknown flag
		{"-input", "x", "-badmode"}, // unknown flag alongside valid ones
	} {
		_, _, err := runCLI(t, tc...)
		if !errors.Is(err, cli.ErrUsage) {
			t.Errorf("run(%q) err = %v, want cli.ErrUsage", tc, err)
		}
	}
}

func TestMissingAddressing(t *testing.T) {
	_, stderr, err := runCLI(t, "-input", writeNet(t))
	if !errors.Is(err, cli.ErrUsage) {
		t.Fatalf("err = %v, want cli.ErrUsage", err)
	}
	if !strings.Contains(stderr, "give either -seed") {
		t.Fatalf("stderr %q does not explain the missing mode", stderr)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, _, err := runCLI(t, "-input", writeNet(t), "-source", "0", "-sink", "1", "-method", "wat")
	if !errors.Is(err, cli.ErrUsage) {
		t.Fatalf("err = %v, want cli.ErrUsage", err)
	}
}

func TestMissingFileIsRuntimeError(t *testing.T) {
	_, _, err := runCLI(t, "-input", filepath.Join(t.TempDir(), "nope.txt"), "-source", "0", "-sink", "1")
	if err == nil || errors.Is(err, cli.ErrUsage) {
		t.Fatalf("err = %v, want a runtime (non-usage) error", err)
	}
	if cli.ExitCode(err) != 1 {
		t.Fatalf("exitCode = %d, want 1", cli.ExitCode(err))
	}
}

func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, 0},
		{flag.ErrHelp, 0},
		{cli.ErrUsage, 2},
		{errors.New("boom"), 1},
	} {
		if got := cli.ExitCode(tc.err); got != tc.want {
			t.Errorf("cli.ExitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestPairFlow(t *testing.T) {
	stdout, _, err := runCLI(t, "-input", writeNet(t), "-source", "0", "-sink", "1")
	if err != nil {
		t.Fatal(err)
	}
	// The 0->1 subgraph carries both direct transfers: flow 8. (The 1->0
	// edge is dropped — it enters the source.)
	if !strings.Contains(stdout, "maximum flow (presim): 8") {
		t.Fatalf("stdout missing expected flow:\n%s", stdout)
	}
}

func TestSeedFlowVerbose(t *testing.T) {
	stdout, _, err := runCLI(t, "-input", writeNet(t), "-seed", "0", "-v")
	if err != nil {
		t.Fatal(err)
	}
	// Seed 0's returning path 0->1->0 forwards 4 of the 5 sent units.
	if !strings.Contains(stdout, "maximum flow (presim): 4") {
		t.Fatalf("stdout missing expected seed flow:\n%s", stdout)
	}
	if !strings.Contains(stdout, "class:") {
		t.Fatalf("-v did not print pipeline details:\n%s", stdout)
	}
}

func TestSeedsBatchMode(t *testing.T) {
	stdout, _, err := runCLI(t, "-input", writeNet(t), "-seeds", "0,1", "-workers", "2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"seed 0",
		"seed 1",
		"2/2 seeds with a flow subgraph, total flow 7",
	} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("batch stdout missing %q:\n%s", want, stdout)
		}
	}
	// "-seeds all" scans every vertex and must agree with the explicit list.
	all, _, err := runCLI(t, "-input", writeNet(t), "-seeds", "all")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(all, "2/2 seeds with a flow subgraph, total flow 7") {
		t.Fatalf("-seeds all disagrees with explicit list:\n%s", all)
	}
	// Bad seeds are runtime errors.
	if _, _, err := runCLI(t, "-input", writeNet(t), "-seeds", "0,99"); err == nil {
		t.Fatal("out-of-range seed succeeded, want error")
	}
}

func TestGreedyAndEngineMethods(t *testing.T) {
	for method, want := range map[string]string{
		"greedy": "greedy flow: 8",
		"lp":     "maximum flow (LP baseline): 8",
		"teg":    "maximum flow (time-expanded Dinic): 8",
		"pre":    "maximum flow (pre): 8",
	} {
		stdout, _, err := runCLI(t, "-input", writeNet(t), "-source", "0", "-sink", "1", "-method", method)
		if err != nil {
			t.Fatalf("method %s: %v", method, err)
		}
		if !strings.Contains(stdout, want) {
			t.Fatalf("method %s: stdout missing %q:\n%s", method, want, stdout)
		}
	}
}

// TestCyclicPairFallsBack pins the one dispatch the DAG pipelines have: on
// a cyclic pair subgraph (0→1, the 1⇄2 cycle, both draining into 3) pre
// and presim say so and answer with the time-expanded engine.
func TestCyclicPairFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cyclic.txt")
	if err := os.WriteFile(path, []byte("0 1 1 5\n1 2 2 3\n2 1 3 2\n1 3 4 4\n2 3 5 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"pre", "presim"} {
		stdout, _, err := runCLI(t, "-input", path, "-source", "0", "-sink", "3", "-method", method)
		if err != nil {
			t.Fatalf("method %s: %v", method, err)
		}
		for _, want := range []string{
			"note: subgraph is cyclic; pre/presim require DAGs — falling back to teg",
			"maximum flow (time-expanded Dinic): 5",
		} {
			if !strings.Contains(stdout, want) {
				t.Fatalf("method %s: stdout missing %q:\n%s", method, want, stdout)
			}
		}
	}
}
