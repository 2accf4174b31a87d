package bench

import (
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"flownet/internal/core"
	"flownet/internal/datagen"
	"flownet/internal/pattern"
	"flownet/internal/tin"
)

// Guards behind the mmap load path (loading a snapshot zero-copy vs
// decoding it) and the allocation budgets of the hot query and search
// paths.

// TestMmapLoadFasterThanDecode is the acceptance check behind the mmap
// path: serving a snapshot zero-copy must beat fully decoding it. Same
// best-of-3 shape as TestLoadBinaryFasterThanText. A shared 2-vCPU Xeon VM
// logs decode 6–11 ms against mmap 0.22–0.33 ms (21–33×); decoding value
// by value into slices grown by append took 22–25 ms (55–63×).
func TestMmapLoadFasterThanDecode(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	n := datagen.Bitcoin(datagen.Config{Vertices: 3000, Seed: 11})
	path := filepath.Join(t.TempDir(), "net.tinb")
	if err := tin.SaveNetworkBinary(path, n); err != nil {
		t.Fatal(err)
	}
	probe, err := tin.OpenNetworkMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped := probe.MmapBacked()
	probe.Unmap()
	if !mapped {
		t.Skip("mmap unsupported on this platform; loader falls back to decoding")
	}
	time := func(load func(string) (*tin.Network, error)) (best float64) {
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(func(b *testing.B) {
				for j := 0; j < b.N; j++ {
					m, err := load(path)
					if err != nil {
						b.Fatal(err)
					}
					if m.NumInteractions() != n.NumInteractions() {
						b.Fatal("short load")
					}
					m.Unmap()
				}
			})
			if s := r.T.Seconds() / float64(r.N); best == 0 || s < best {
				best = s
			}
		}
		return best
	}
	decode, mmap := time(tin.LoadNetwork), time(tin.OpenNetworkMmap)
	t.Logf("decode %.3fms, mmap %.3fms (%.1fx)", decode*1e3, mmap*1e3, decode/mmap)
	if mmap >= decode {
		t.Errorf("mmap load (%v) not faster than full decode (%v)", mmap, decode)
	}
}

// TestQueryAllocationBudget guards the hot query path — extraction,
// preprocessing, flow — against re-introducing per-interaction heap
// allocations. The budget is a fixed count per query: scratch buffers and
// the result graph are fine, O(interactions) allocation churn is not (the
// corpus has ~10^4 interactions per extraction, two orders of magnitude above the budget).
func TestQueryAllocationBudget(t *testing.T) {
	forBaseAndTail(t, func(t *testing.T, n *tin.Network) {
		seed := tin.VertexID(0)
		opts := tin.DefaultExtractOptions()
		if _, ok := n.ExtractSubgraph(seed, opts); !ok {
			t.Skip("seed extracts nothing")
		}
		allocs := testing.AllocsPerRun(10, func() {
			g, ok := n.ExtractSubgraph(seed, opts)
			if !ok {
				t.Fatal("extraction failed")
			}
			if _, err := core.PreSim(g, core.EngineTEG); err != nil {
				t.Fatal(err)
			}
		})
		// Scratch pooling dropped steady-state extraction to a handful of
		// result-graph blocks (measured: ~12 for the whole pipeline); the
		// budget leaves slack for solver variance but forbids any return of
		// per-path or per-interaction churn.
		const budget = 40
		if allocs > budget {
			t.Errorf("query path allocates %.0f objects per run, budget %d", allocs, budget)
		}
		t.Logf("extract+preprocess+flow: %.0f allocs per query", allocs)
	})
}

// TestSolveAllocationBudget guards the solve half of a served query —
// core.SolveExtraction over a fresh extraction, counted apart from the
// extraction, which TestQueryAllocationBudget bounds — on three queries of
// the bench network, as /flow asks them (Query.Residue):
//
//   - a class-A seed: its runs, scanned by position, the scan's scratch on
//     the stack;
//   - a class-C seed: its graph, reduced in place (no clone) — one
//     topological sort, the working lists of Algorithms 1 and 2 and the
//     arrival sequences that replace chains — then the time-expanded
//     engine, whose event list and arrays come from its pool: only the
//     walk's cursors over the Ord index are allocated;
//   - a cyclic windowed pair: its residue, handed to the engine as it is:
//     the walk's cursors again.
//
// A last case counts the class-A seed query end to end: Extract gives no
// Graph, and the query allocates its runs and their endpoints, nothing
// else. No budget depends on the instance's size. Measured: 0, 5 and 1
// (Solve on the same instances' graphs: 4, 33 and 9); 2 for the whole
// class-A query. The counted runs go with the collector off: a collection
// among them would empty the engine's pool and charge its refill to the
// solve. Under the race detector sync.Pool drops what is Put, so the
// counts are only logged there.
func TestSolveAllocationBudget(t *testing.T) {
	n := loadBenchNetwork(t)
	seedQuery := func(keep func(tin.Extraction, core.Result) bool) *tin.Query {
		for seed := 0; seed < n.NumVertices(); seed++ {
			q := tin.Query{Source: tin.VertexID(seed), Sink: tin.VertexID(seed), ExtractOptions: tin.DefaultExtractOptions(), Residue: true}
			if x := n.Extract(q); x.Ok && keep(x, core.SolveExtraction(x)) {
				return &q
			}
		}
		return nil
	}
	classA := seedQuery(func(x tin.Extraction, _ core.Result) bool { return x.Graph == nil })
	classC := seedQuery(func(_ tin.Extraction, r core.Result) bool { return r.Class == core.ClassC && !r.Cyclic })
	// The unwindowed pair instances of this network are most of it; a
	// one-percent window keeps one small.
	var pair *tin.Query
	window := tin.ExtractOptions{Window: &tin.TimeWindow{From: 0, To: n.MaxTime() / 100}}
	for src := tin.VertexID(1); src < 64 && pair == nil; src++ {
		q := tin.Query{Source: src, Sink: 0, ExtractOptions: window, Residue: true}
		if x := n.Extract(q); x.Ok && x.Residue && core.SolveExtraction(x).Flow > 0 {
			pair = &q
		}
	}
	check := func(t *testing.T, allocs, budget float64) {
		if allocs > budget && !raceEnabled {
			t.Errorf("%.0f allocs per run, budget %.0f", allocs, budget)
		}
	}
	for _, c := range []struct {
		name   string
		q      *tin.Query
		want   func(core.Result) bool
		budget float64
	}{
		{"classA", classA, func(r core.Result) bool { return r.Class == core.ClassA }, 0},
		{"classC", classC, func(r core.Result) bool { return r.Class == core.ClassC && !r.Cyclic }, 5},
		{"cyclicPair", pair, func(r core.Result) bool { return r.Cyclic }, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.q == nil {
				t.Skip("no such instance in the bench network")
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var before, after runtime.MemStats
			var total uint64
			const runs = 10
			var x tin.Extraction
			for i := range runs + 1 { // the first run fills the engine's pool
				x = n.Extract(*c.q)
				runtime.ReadMemStats(&before)
				res := core.SolveExtraction(x)
				runtime.ReadMemStats(&after)
				if !c.want(res) {
					t.Fatalf("SolveExtraction = %+v", res)
				}
				if i > 0 {
					total += after.Mallocs - before.Mallocs
				}
			}
			allocs := float64(total) / runs
			t.Logf("SolveExtraction on %d vertices, %d interactions: %.0f allocs", x.Vertices, x.Interactions, allocs)
			check(t, allocs, c.budget)
		})
	}
	t.Run("classAQuery", func(t *testing.T) {
		if classA == nil {
			t.Skip("no class-A seed in the bench network")
		}
		allocs := testing.AllocsPerRun(10, func() {
			x := n.Extract(*classA)
			if x.Graph != nil {
				t.Fatal("a class-A seed query built a graph")
			}
			if res := core.SolveExtraction(x); res.Class != core.ClassA {
				t.Fatalf("SolveExtraction = %+v", res)
			}
		})
		t.Logf("class-A seed query, Extract and SolveExtraction: %.0f allocs", allocs)
		check(t, allocs, 2)
	})
}

// TestInstanceFlowAllocationBudget guards the per-instance work of the GB
// search (Section 5.1) on the smallest and the largest P5 instance of the
// bench network. P5 is decomposable (Lemma 2 holds on every instance), so
// pattern.InstanceFlow is the positional greedy scan over the instance's
// edge runs: no flow graph, and the scan, staged by position, keeps no
// transfer list — its buffers and cursors fit arrays on the stack, and
// nothing is allocated, whatever the instance's size.
func TestInstanceFlowAllocationBudget(t *testing.T) {
	n := loadBenchNetwork(t)
	size := func(inst *pattern.Instance) int {
		ias := 0
		for _, e := range inst.EdgeIDs {
			ias += len(n.Edge(e).Seq)
		}
		return ias
	}
	var small, large *pattern.Instance
	if err := pattern.EnumerateGB(n, pattern.P5, func(inst *pattern.Instance) bool {
		if small == nil || size(inst) < size(small) {
			small = inst.Clone()
		}
		if large == nil || size(inst) > size(large) {
			large = inst.Clone()
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if small == nil {
		t.Fatal("the bench network has no P5 instance")
	}
	const budget = 0
	var counts []float64
	for _, inst := range []*pattern.Instance{small, large} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := pattern.InstanceFlow(n, pattern.P5, inst, core.EngineTEG); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("InstanceFlow on a P5 instance of %d interactions: %.0f allocs", size(inst), allocs)
		if allocs > budget {
			t.Errorf("InstanceFlow allocates %.0f objects per run on %d interactions, budget %d", allocs, size(inst), budget)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Errorf("InstanceFlow allocates %.0f objects on the smallest instance and %.0f on the largest", counts[0], counts[1])
	}
}

// TestSearchGBAllocationBudget guards the anchor-by-anchor GB searches as
// a whole, on one worker and on two. SearchGB(P5) reuses its pooled
// collector across anchors and summarises each petal once per anchor, so
// it allocates fewer objects than it finds instances (the per-instance
// flow graphs it replaced cost about nine each). RP2 and RP3 reuse the
// collector's grouper and closing index and scan each path for its flow
// alone, so they allocate one object per anchor with instances — its flows
// for the fold — and a few per search, not a grouper per anchor and an
// arrival sequence per path.
func TestSearchGBAllocationBudget(t *testing.T) {
	n := loadBenchNetwork(t)
	for _, c := range []struct {
		p      *pattern.Pattern
		budget func(instances int64) float64
	}{
		{pattern.P5, func(instances int64) float64 { return float64(instances) - 1 }},
		{pattern.RP2, func(instances int64) float64 { return float64(instances) + 32 }},
		{pattern.RP3, func(instances int64) float64 { return float64(instances) + 32 }},
	} {
		for _, workers := range []int{1, 2} {
			opts := pattern.Options{Workers: workers}
			sum, err := pattern.SearchGB(n, c.p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if sum.Instances == 0 {
				t.Fatalf("the bench network has no %s instance", c.p.Name)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := pattern.SearchGB(n, c.p, opts); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("SearchGB(%s, Workers: %d): %.0f allocs for %d instances", c.p.Name, workers, allocs, sum.Instances)
			// Under the race detector sync.Pool drops Puts, so each dropped
			// collector is allocated again.
			if budget := c.budget(sum.Instances); allocs > budget && !raceEnabled {
				t.Errorf("SearchGB(%s, Workers: %d) allocates %.0f objects for %d instances, budget %.0f", c.p.Name, workers, allocs, sum.Instances, budget)
			}
		}
	}
}

// forBaseAndTail runs a hot-path guard on the benchmark network as loaded
// (all base, no tail) and on the same network after 64 appended batches:
// reading through a tail must fit the same budgets.
func forBaseAndTail(t *testing.T, guard func(t *testing.T, n *tin.Network)) {
	n := loadBenchNetwork(t)
	t.Run("base", func(t *testing.T) { guard(t, n) })
	t.Run("tail", func(t *testing.T) { guard(t, withTail(t, n, 0)) })
}

// TestWindowedQueryAllocationBudget is the same guard for the windowed
// fast path: applying a time window during extraction must not reintroduce
// allocation churn (the pre-optimization path cloned the whole subgraph in
// RestrictWindow).
func TestWindowedQueryAllocationBudget(t *testing.T) {
	forBaseAndTail(t, func(t *testing.T, n *tin.Network) {
		seed := tin.VertexID(0)
		opts := tin.DefaultExtractOptions()
		opts.Window = &tin.TimeWindow{From: 0, To: n.MaxTime() / 2}
		if _, ok := n.ExtractSubgraph(seed, opts); !ok {
			t.Skip("seed extracts nothing in the window")
		}
		allocs := testing.AllocsPerRun(10, func() {
			g, ok := n.ExtractSubgraph(seed, opts)
			if !ok {
				t.Fatal("extraction failed")
			}
			if _, err := core.PreSim(g, core.EngineTEG); err != nil {
				t.Fatal(err)
			}
		})
		const budget = 40
		if allocs > budget {
			t.Errorf("windowed query path allocates %.0f objects per run, budget %d", allocs, budget)
		}
		t.Logf("windowed extract+preprocess+flow: %.0f allocs per query", allocs)
	})
}
