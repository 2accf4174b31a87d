package bench

import (
	"strings"
	"testing"
	"time"

	"flownet/internal/core"
	"flownet/internal/datagen"
	"flownet/internal/pattern"
	"flownet/internal/tin"
)

func testCorpus(t *testing.T) ([]Subgraph, *tin.Network) {
	t.Helper()
	n := datagen.Prosper(datagen.Config{Vertices: 400, Seed: 5})
	corpus := BuildCorpus(n, DefaultCorpusOptions())
	if len(corpus) == 0 {
		t.Fatalf("empty corpus")
	}
	return corpus, n
}

func TestBuildCorpus(t *testing.T) {
	corpus, _ := testCorpus(t)
	for i, s := range corpus {
		if err := s.G.Validate(); err != nil {
			t.Fatalf("subgraph %d invalid: %v", i, err)
		}
		if !s.G.IsDAG() {
			t.Fatalf("subgraph %d not a DAG", i)
		}
		if s.Class < core.ClassA || s.Class > core.ClassC {
			t.Fatalf("subgraph %d class out of range", i)
		}
	}
	st := Stats(corpus)
	if st.Count != len(corpus) {
		t.Errorf("stats count mismatch")
	}
	if st.PerClass[0]+st.PerClass[1]+st.PerClass[2] != st.Count {
		t.Errorf("class counts do not add up: %+v", st)
	}
	if st.AvgInteractions <= 0 || st.AvgVertices < 3 {
		t.Errorf("degenerate stats: %+v", st)
	}
}

func TestBuildCorpusLimits(t *testing.T) {
	n := datagen.Prosper(datagen.Config{Vertices: 400, Seed: 5})
	opts := DefaultCorpusOptions()
	opts.MaxSubgraphs = 3
	limited := BuildCorpus(n, opts)
	if len(limited) != 3 {
		t.Errorf("MaxSubgraphs ignored: got %d", len(limited))
	}
}

// TestBuildCorpusParallelMatchesSequential: the corpus (content, order and
// MaxSubgraphs cut) must not depend on the worker count.
func TestBuildCorpusParallelMatchesSequential(t *testing.T) {
	n := datagen.Prosper(datagen.Config{Vertices: 400, Seed: 5})
	for _, maxSub := range []int{0, 7} {
		seq := DefaultCorpusOptions()
		seq.Workers = 1
		seq.MaxSubgraphs = maxSub
		want := BuildCorpus(n, seq)
		for _, workers := range []int{2, 8} {
			opts := seq
			opts.Workers = workers
			got := BuildCorpus(n, opts)
			if len(got) != len(want) {
				t.Fatalf("maxsub=%d workers=%d: %d subgraphs, want %d", maxSub, workers, len(got), len(want))
			}
			for i := range got {
				if got[i].Seed != want[i].Seed || got[i].Class != want[i].Class ||
					got[i].G.NumInteractions() != want[i].G.NumInteractions() {
					t.Errorf("maxsub=%d workers=%d: corpus[%d] differs (seed %d/%d)",
						maxSub, workers, i, got[i].Seed, want[i].Seed)
				}
			}
		}
	}
}

// TestBuildCorpusSparseCapParallel pins the MaxSubgraphs cut on a sparse
// network where valid seeds are spaced much further apart than the workers'
// reach ahead of the collected prefix: a seed skipped or collected out of
// order near the cut shows up here, not on a dense corpus.
func TestBuildCorpusSparseCapParallel(t *testing.T) {
	nb := tin.NewBuilder(200)
	for _, v := range []int{0, 50, 100, 150} {
		a, b := tin.VertexID(v), tin.VertexID(v+1)
		nb.AddInteraction(a, b, float64(v), 5)
		nb.AddInteraction(b, a, float64(v)+1, 5)
	}
	n := nb.Finalize()
	for _, maxSub := range []int{0, 6} {
		opts := DefaultCorpusOptions()
		opts.MaxSubgraphs = maxSub
		opts.Workers = 1
		want := BuildCorpus(n, opts)
		if maxSub > 0 && len(want) != maxSub {
			t.Fatalf("sequential corpus has %d subgraphs, want %d", len(want), maxSub)
		}
		for _, workers := range []int{2, 4, 8} {
			opts.Workers = workers
			got := BuildCorpus(n, opts)
			if len(got) != len(want) {
				t.Fatalf("maxsub=%d workers=%d: %d subgraphs, want %d", maxSub, workers, len(got), len(want))
			}
			for i := range got {
				if got[i].Seed != want[i].Seed {
					t.Errorf("maxsub=%d workers=%d: corpus[%d] seed %d, want %d",
						maxSub, workers, i, got[i].Seed, want[i].Seed)
				}
			}
		}
	}
}

func TestRunFlowBench(t *testing.T) {
	corpus, _ := testCorpus(t)
	opts := DefaultFlowBenchOptions()
	rep, err := RunFlowBench(corpus, opts)
	if err != nil {
		t.Fatalf("RunFlowBench: %v", err)
	}
	if rep.All.Count != len(corpus) {
		t.Errorf("counted %d of %d subgraphs", rep.All.Count, len(corpus))
	}
	if rep.All.Mismatch != 0 {
		t.Errorf("%d flow mismatches between LP, Pre and PreSim", rep.All.Mismatch)
	}
	if rep.All.LPCount == 0 {
		t.Errorf("LP baseline never ran")
	}
	var sb strings.Builder
	rep.Print(&sb, "test table")
	out := sb.String()
	for _, want := range []string{"Greedy", "PreSim", "Class A", "Class C"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "MISMATCH") || strings.Contains(out, "WARNING") {
		t.Errorf("report shows mismatches:\n%s", out)
	}
}

func TestRunBucketBench(t *testing.T) {
	corpus, _ := testCorpus(t)
	rep, err := RunBucketBench(corpus, DefaultFlowBenchOptions())
	if err != nil {
		t.Fatalf("RunBucketBench: %v", err)
	}
	total := 0
	for _, c := range rep.Buckets {
		total += c.Count
	}
	if total != len(corpus) {
		t.Errorf("buckets cover %d of %d subgraphs", total, len(corpus))
	}
	var sb strings.Builder
	rep.Print(&sb, "figure 11")
	if !strings.Contains(sb.String(), "<100") {
		t.Errorf("bucket report missing bucket labels:\n%s", sb.String())
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		n, want int
	}{{0, 0}, {99, 0}, {100, 1}, {1000, 1}, {1001, 2}, {50000, 2}}
	for _, c := range cases {
		if got := bucketOf(c.n); got != c.want {
			t.Errorf("bucketOf(%d)=%d, want %d", c.n, got, c.want)
		}
	}
}

func TestRunPatternBench(t *testing.T) {
	_, n := testCorpus(t)
	opts := PatternBenchOptions{
		WithChains: true,
		Patterns: []*pattern.Pattern{
			pattern.P2, pattern.P3, pattern.P5, pattern.P6,
			pattern.RP2, pattern.RP3,
		},
	}
	rep, err := RunPatternBench(n, opts)
	if err != nil {
		t.Fatalf("RunPatternBench: %v", err)
	}
	if len(rep.Rows) != len(opts.Patterns) {
		t.Fatalf("rows=%d, want %d", len(rep.Rows), len(opts.Patterns))
	}
	for _, row := range rep.Rows {
		if !row.AgreementOK {
			t.Errorf("%s: GB and PB disagree", row.Pattern)
		}
	}
	var sb strings.Builder
	rep.Print(&sb, "test patterns")
	if strings.Contains(sb.String(), "MISMATCH") {
		t.Errorf("report shows mismatch:\n%s", sb.String())
	}
}

func TestRunPatternBenchSkipsChainsPatterns(t *testing.T) {
	_, n := testCorpus(t)
	rep, err := RunPatternBench(n, PatternBenchOptions{WithChains: false, MaxInstances: 200})
	if err != nil {
		t.Fatalf("RunPatternBench: %v", err)
	}
	for _, row := range rep.Rows {
		if row.Pattern == "P1" || row.Pattern == "RP1" {
			t.Errorf("chain-table pattern %s ran without C2", row.Pattern)
		}
	}
}

func TestFmtDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "-"},
		{5 * time.Nanosecond, "0.00001"},
		{100 * time.Microsecond, "0.1000"},
		{25 * time.Millisecond, "25.000"},
	}
	for _, c := range cases {
		if got := fmtDuration(c.d); got != c.want {
			t.Errorf("fmtDuration(%v)=%q, want %q", c.d, got, c.want)
		}
	}
}
