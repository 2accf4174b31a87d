package bench

import (
	"fmt"
	"io"
	"time"

	"flownet/internal/core"
)

// paperEngine is the exact engine Pre, PreSim and the pattern searches hand
// their residual instances to: the LP, as in the paper. core.Solve, timed
// beside them, runs the time-expanded engine.
const paperEngine = core.EngineLP

// FlowBenchOptions control the Table 6–8 / Figure 11 measurements. Every
// measured subgraph is also a cross-check: a flow on which Pre, PreSim,
// Solve and (where it ran) the raw LP disagree counts as a Mismatch.
type FlowBenchOptions struct {
	// LPSampleLimit caps how many subgraphs per (class, bucket) cell run
	// the raw LP baseline; its average is extrapolated from the sample.
	// The LP baseline is quadratic in the interaction count and exists to
	// be beaten, so sampling keeps full-corpus runs tractable. 0 = all.
	LPSampleLimit int
	// LPMaxInteractions skips the raw LP baseline on subgraphs with more
	// interactions (their Pre/PreSim/Greedy numbers are still measured).
	// 0 = no limit.
	LPMaxInteractions int
}

// DefaultFlowBenchOptions keep full-corpus runs tractable while measuring
// every method on every class.
func DefaultFlowBenchOptions() FlowBenchOptions {
	return FlowBenchOptions{LPSampleLimit: 25, LPMaxInteractions: 2000}
}

// Cell aggregates per-method average runtimes over a set of subgraphs.
type Cell struct {
	Count    int
	LPCount  int // subgraphs on which the raw LP baseline actually ran
	Greedy   time.Duration
	LP       time.Duration
	Pre      time.Duration
	PreSim   time.Duration
	Solve    time.Duration // core.Solve: what the service runs
	Mismatch int           // flow disagreements detected (should stay 0)
}

func (c *Cell) addAvg(greedy, lp, pre, presim, solve time.Duration, lpRan bool) {
	c.Count++
	c.Greedy += greedy
	c.Pre += pre
	c.PreSim += presim
	c.Solve += solve
	if lpRan {
		c.LPCount++
		c.LP += lp
	}
}

func (c Cell) avg() Cell {
	out := c
	if c.Count > 0 {
		out.Greedy /= time.Duration(c.Count)
		out.Pre /= time.Duration(c.Count)
		out.PreSim /= time.Duration(c.Count)
		out.Solve /= time.Duration(c.Count)
	}
	if c.LPCount > 0 {
		out.LP /= time.Duration(c.LPCount)
	}
	return out
}

// FlowReport is the Table 6–8 content: per-class and overall average
// runtimes of the paper's four methods, and of core.Solve beside them.
type FlowReport struct {
	All      Cell
	PerClass [3]Cell
}

// lpSampler decides, deterministically and stratified across each stratum,
// which subgraphs run the raw LP baseline: with a limit of k over a stratum
// of size m, every ceil(m/k)-th eligible subgraph is sampled, spreading the
// sample across the corpus instead of front-loading it.
type lpSampler struct {
	stride [3]int
	seen   [3]int
	taken  [3]int
	limit  int
	maxIA  int
}

func newLPSampler(counts [3]int, opts FlowBenchOptions) *lpSampler {
	s := &lpSampler{limit: opts.LPSampleLimit, maxIA: opts.LPMaxInteractions}
	for i, m := range counts {
		s.stride[i] = 1
		if s.limit > 0 && m > s.limit {
			s.stride[i] = (m + s.limit - 1) / s.limit
		}
	}
	return s
}

func (s *lpSampler) take(stratum, interactions int) bool {
	if s.maxIA > 0 && interactions > s.maxIA {
		return false
	}
	i := s.seen[stratum]
	s.seen[stratum]++
	if s.limit > 0 {
		if s.taken[stratum] >= s.limit || i%s.stride[stratum] != 0 {
			return false
		}
	}
	s.taken[stratum]++
	return true
}

// measure is the timing loop behind Tables 6–8 and Figure 11: it times
// Greedy, Pre, PreSim, core.Solve (PreSim's reductions with the
// time-expanded engine: the served path, measured beside the paper's) and
// (sampled per stratum, subject to opts) the raw LP on every corpus
// subgraph and returns the average runtimes overall and per stratum;
// stratum maps a subgraph to 0..2.
func measure(corpus []Subgraph, opts FlowBenchOptions, stratum func(Subgraph) int) (all Cell, strata [3]Cell, err error) {
	var counts [3]int
	for _, s := range corpus {
		if opts.LPMaxInteractions == 0 || s.G.NumInteractions() <= opts.LPMaxInteractions {
			counts[stratum(s)]++
		}
	}
	sampler := newLPSampler(counts, opts)
	for _, s := range corpus {
		g, st := s.G, stratum(s)

		t0 := time.Now()
		core.Greedy(g)
		dGreedy := time.Since(t0)

		t0 = time.Now()
		preRes, err := core.Pre(g, paperEngine)
		if err != nil {
			return all, strata, fmt.Errorf("bench: Pre on seed %d: %w", s.Seed, err)
		}
		dPre := time.Since(t0)

		t0 = time.Now()
		simRes, err := core.PreSim(g, paperEngine)
		if err != nil {
			return all, strata, fmt.Errorf("bench: PreSim on seed %d: %w", s.Seed, err)
		}
		dPreSim := time.Since(t0)

		t0 = time.Now()
		solveRes := core.Solve(g)
		dSolve := time.Since(t0)

		mismatch := relErr(preRes.Flow, simRes.Flow) > 1e-6 || relErr(simRes.Flow, solveRes.Flow) > 1e-6
		runLP := sampler.take(st, g.NumInteractions())
		var dLP time.Duration
		if runLP {
			t0 = time.Now()
			lpFlow, err := core.MaxFlowLP(g)
			if err != nil {
				return all, strata, fmt.Errorf("bench: LP on seed %d: %w", s.Seed, err)
			}
			dLP = time.Since(t0)
			mismatch = mismatch || relErr(lpFlow, preRes.Flow) > 1e-6 || relErr(lpFlow, simRes.Flow) > 1e-6 || relErr(lpFlow, solveRes.Flow) > 1e-6
		}
		if mismatch {
			all.Mismatch++
			strata[st].Mismatch++
		}
		all.addAvg(dGreedy, dLP, dPre, dPreSim, dSolve, runLP)
		strata[st].addAvg(dGreedy, dLP, dPre, dPreSim, dSolve, runLP)
	}
	all = all.avg()
	for i := range strata {
		strata[i] = strata[i].avg()
	}
	return all, strata, nil
}

// RunFlowBench times Greedy, LP, Pre, PreSim and Solve on every corpus
// subgraph (LP subject to the sampling options) and aggregates averages per
// class.
func RunFlowBench(corpus []Subgraph, opts FlowBenchOptions) (FlowReport, error) {
	all, perClass, err := measure(corpus, opts, func(s Subgraph) int { return int(s.Class) })
	return FlowReport{All: all, PerClass: perClass}, err
}

// printRows renders a header (its first column named corner) and one row
// of average runtimes per cell: the paper's four methods, then Solve.
func printRows(w io.Writer, corner string, names []string, cells []Cell) {
	const format = "%-16s %10s %12s %12s %12s %12s\n"
	fmt.Fprintf(w, format, corner, "Greedy", "LP", "Pre", "PreSim", "Solve")
	for i, c := range cells {
		fmt.Fprintf(w, format, fmt.Sprintf("%s (%d)", names[i], c.Count),
			fmtDuration(c.Greedy), fmtDuration(c.LP), fmtDuration(c.Pre), fmtDuration(c.PreSim), fmtDuration(c.Solve))
	}
}

// Print renders the report in the layout of Tables 6–8 (average msec per
// subgraph; LP averaged over its sampled runs).
func (r FlowReport) Print(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n", title)
	printRows(w, "", []string{"All", "Class A", "Class B", "Class C"}, append([]Cell{r.All}, r.PerClass[:]...))
	fmt.Fprintf(w, "raw LP sampled on %d/%d/%d subgraphs per class (size-capped; "+
		"its average understates the true LP cost on large class-C inputs)\n",
		r.PerClass[0].LPCount, r.PerClass[1].LPCount, r.PerClass[2].LPCount)
	if r.All.Mismatch > 0 {
		fmt.Fprintf(w, "WARNING: %d flow mismatches detected\n", r.All.Mismatch)
	}
}

// Buckets for Figure 11: interaction-count ranges.
var bucketNames = [3]string{"<100", "100-1000", ">1000"}

func bucketOf(interactions int) int {
	switch {
	case interactions < 100:
		return 0
	case interactions <= 1000:
		return 1
	default:
		return 2
	}
}

// BucketReport is the Figure 11 content: per-bucket average runtimes.
type BucketReport struct {
	Buckets [3]Cell
}

// RunBucketBench reproduces Figure 11: the corpus is partitioned by
// interaction count (<100, 100–1000, >1000) and each method's average
// runtime is measured per bucket.
func RunBucketBench(corpus []Subgraph, opts FlowBenchOptions) (BucketReport, error) {
	_, buckets, err := measure(corpus, opts, func(s Subgraph) int { return bucketOf(s.G.NumInteractions()) })
	return BucketReport{Buckets: buckets}, err
}

// Print renders the bucket report as the series behind Figure 11.
func (r BucketReport) Print(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n", title)
	printRows(w, "#interactions", bucketNames[:], r.Buckets[:])
}
