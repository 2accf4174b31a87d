package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"flownet/internal/datagen"
	"flownet/internal/teg"
	"flownet/internal/tin"
)

const ftol = 1e-6

func feq(a, b float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= ftol*(1+math.Abs(a)+math.Abs(b))
}

// randGraph draws a random DAG from a seed, shared by all property tests.
func randGraph(seed int64, cfg datagen.DAGConfig) *tin.Graph {
	return datagen.RandomDAG(rand.New(rand.NewSource(seed)), cfg)
}

// TestPropertyLPEqualsTEG certifies the LP solver against the time-expanded
// reduction on random DAGs, solved twice: by internal/teg's Dinic and by the
// written-out expansion with Edmonds–Karp (referenceMaxFlow).
func TestPropertyLPEqualsTEG(t *testing.T) {
	cfg := datagen.DefaultDAGConfig()
	f := func(seed int64) bool {
		g := randGraph(seed, cfg)
		lpFlow, err := MaxFlowLP(g)
		if err != nil {
			t.Logf("seed %d: LP error: %v", seed, err)
			return false
		}
		tegFlow := teg.MaxFlow(g)
		refFlow := referenceMaxFlow(g)
		if !feq(lpFlow, tegFlow) || !feq(tegFlow, refFlow) {
			t.Logf("seed %d: LP=%g TEG=%g reference=%g\n%s", seed, lpFlow, tegFlow, refFlow, g)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyGreedyLowerBoundsMax: greedy flow never exceeds the maximum,
// and equals it on Lemma-2 graphs.
func TestPropertyGreedyLowerBoundsMax(t *testing.T) {
	cfg := datagen.DefaultDAGConfig()
	f := func(seed int64) bool {
		g := randGraph(seed, cfg)
		greedy := Greedy(g)
		max := teg.MaxFlow(g)
		if greedy > max+ftol {
			t.Logf("seed %d: greedy=%g > max=%g", seed, greedy, max)
			return false
		}
		if GreedySoluble(g) && !feq(greedy, max) {
			t.Logf("seed %d: Lemma 2 graph but greedy=%g != max=%g", seed, greedy, max)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyChainsGreedyOptimal: Lemma 1 on random chains.
func TestPropertyChainsGreedyOptimal(t *testing.T) {
	cfg := datagen.DefaultDAGConfig()
	f := func(seed int64, edges uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := datagen.RandomChain(rng, 1+int(edges%8), cfg)
		if !IsChain(g) || !GreedySoluble(g) {
			t.Logf("seed %d: generated chain not recognized as chain", seed)
			return false
		}
		return feq(Greedy(g), teg.MaxFlow(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPreprocessPreservesMaxFlow: Algorithm 1 is flow-preserving
// and idempotent.
func TestPropertyPreprocessPreservesMaxFlow(t *testing.T) {
	cfg := datagen.DefaultDAGConfig()
	f := func(seed int64) bool {
		g := randGraph(seed, cfg)
		before := teg.MaxFlow(g)
		h := g.Clone()
		if _, err := Preprocess(h); err != nil {
			t.Logf("seed %d: preprocess: %v", seed, err)
			return false
		}
		if ZeroFlow(h) {
			return feq(before, 0)
		}
		after := teg.MaxFlow(h)
		if !feq(before, after) {
			t.Logf("seed %d: preprocess changed flow %g -> %g\nbefore:\n%safter:\n%s", seed, before, after, g, h)
			return false
		}
		// Idempotence: a second pass removes nothing.
		st2, err := Preprocess(h)
		if err != nil {
			t.Logf("seed %d: second preprocess: %v", seed, err)
			return false
		}
		if st2.Interactions != 0 || st2.Edges != 0 || st2.Vertices != 0 {
			t.Logf("seed %d: preprocess not idempotent: %+v", seed, st2)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySimplifyPreservesMaxFlow: Algorithm 2 is flow-preserving and
// reaches a fixpoint with no remaining source chains.
func TestPropertySimplifyPreservesMaxFlow(t *testing.T) {
	cfg := datagen.DefaultDAGConfig()
	f := func(seed int64) bool {
		g := randGraph(seed, cfg)
		before := teg.MaxFlow(g)
		h := g.Clone()
		Simplify(h)
		if ZeroFlow(h) {
			return feq(before, 0)
		}
		after := teg.MaxFlow(h)
		if !feq(before, after) {
			t.Logf("seed %d: simplify changed flow %g -> %g\nbefore:\n%safter:\n%s", seed, before, after, g, h)
			return false
		}
		// Fixpoint: no inner vertex adjacent to the source forms a chain.
		st2 := Simplify(h)
		if st2.ChainsReduced != 0 {
			t.Logf("seed %d: simplify left a reducible chain", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPipelinesAgree: Pre and PreSim (both engines) compute the
// same maximum flow as the raw solvers.
func TestPropertyPipelinesAgree(t *testing.T) {
	cfg := datagen.DefaultDAGConfig()
	f := func(seed int64) bool {
		g := randGraph(seed, cfg)
		want := teg.MaxFlow(g)
		for _, engine := range []Engine{EngineLP, EngineTEG} {
			pre, err := Pre(g, engine)
			if err != nil {
				t.Logf("seed %d: Pre(%s): %v", seed, engine, err)
				return false
			}
			if !feq(pre.Flow, want) {
				t.Logf("seed %d: Pre(%s)=%g, want %g", seed, engine, pre.Flow, want)
				return false
			}
			ps, err := PreSim(g, engine)
			if err != nil {
				t.Logf("seed %d: PreSim(%s): %v", seed, engine, err)
				return false
			}
			if !feq(ps.Flow, want) {
				t.Logf("seed %d: PreSim(%s)=%g, want %g\n%s", seed, engine, ps.Flow, want, g)
				return false
			}
			if pre.Class != ps.Class {
				t.Logf("seed %d: class mismatch Pre=%s PreSim=%s", seed, pre.Class, ps.Class)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLPSolutionFeasible: the LP optimum respects capacities and
// the temporal buffer constraints when replayed as an event sequence.
func TestPropertyLPSolutionFeasible(t *testing.T) {
	cfg := datagen.DefaultDAGConfig()
	f := func(seed int64) bool {
		g := randGraph(seed, cfg)
		total, byOrd, err := LPTransfers(g)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		buf := make([]float64, g.NumV)
		buf[g.Source] = math.Inf(1)
		sum := 0.0
		for _, ev := range g.Events() {
			x := byOrd[ev.Ord]
			if x < -ftol || x > ev.Qty+ftol {
				t.Logf("seed %d: transfer %g outside [0,%g]", seed, x, ev.Qty)
				return false
			}
			if x > buf[ev.From]+ftol {
				t.Logf("seed %d: transfer %g exceeds buffer %g at v%d", seed, x, buf[ev.From], ev.From)
				return false
			}
			if !math.IsInf(buf[ev.From], 1) {
				buf[ev.From] -= x
			}
			buf[ev.To] += x
			if ev.To == g.Sink {
				sum += x
			}
		}
		if !feq(sum, total) {
			t.Logf("seed %d: replayed sink inflow %g != objective %g", seed, sum, total)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTEGTransfersFeasible mirrors the LP feasibility check for the
// time-expanded engine.
func TestPropertyTEGTransfersFeasible(t *testing.T) {
	cfg := datagen.DefaultDAGConfig()
	f := func(seed int64) bool {
		g := randGraph(seed, cfg)
		total, byOrd := teg.Transfers(g)
		buf := make([]float64, g.NumV)
		buf[g.Source] = math.Inf(1)
		sum := 0.0
		for _, ev := range g.Events() {
			x := byOrd[ev.Ord]
			if x < -ftol || x > ev.Qty+ftol || x > buf[ev.From]+ftol {
				t.Logf("seed %d: infeasible TEG transfer %g (cap %g, buf %g)", seed, x, ev.Qty, buf[ev.From])
				return false
			}
			if !math.IsInf(buf[ev.From], 1) {
				buf[ev.From] -= x
			}
			buf[ev.To] += x
			if ev.To == g.Sink {
				sum += x
			}
		}
		return feq(sum, total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDuplicateTimestamps stresses the canonical tie-break order:
// all timestamps collide, yet all solvers must still agree.
func TestPropertyDuplicateTimestamps(t *testing.T) {
	cfg := datagen.DefaultDAGConfig()
	cfg.MaxTime = 2 // almost every timestamp collides
	f := func(seed int64) bool {
		g := randGraph(seed, cfg)
		lpFlow, err := MaxFlowLP(g)
		if err != nil {
			return false
		}
		if !feq(lpFlow, teg.MaxFlow(g)) {
			t.Logf("seed %d: tie-break divergence: LP=%g TEG=%g", seed, lpFlow, teg.MaxFlow(g))
			return false
		}
		return Greedy(g) <= lpFlow+ftol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyZeroQuantities: zero-quantity interactions are legal and
// never change the optimum relative to dropping them.
func TestPropertyZeroQuantities(t *testing.T) {
	cfg := datagen.DefaultDAGConfig()
	cfg.ZeroQtyProb = 0.3
	f := func(seed int64) bool {
		g := randGraph(seed, cfg)
		lpFlow, err := MaxFlowLP(g)
		if err != nil {
			return false
		}
		return feq(lpFlow, teg.MaxFlow(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPreprocessOnlyRemoves: Algorithm 1 never adds anything.
func TestPropertyPreprocessOnlyRemoves(t *testing.T) {
	cfg := datagen.DefaultDAGConfig()
	f := func(seed int64) bool {
		g := randGraph(seed, cfg)
		ia, e, v := g.NumInteractions(), g.NumLiveEdges(), g.NumLiveVertices()
		st, err := Preprocess(g)
		if err != nil {
			return false
		}
		return g.NumInteractions() <= ia && g.NumLiveEdges() <= e && g.NumLiveVertices() <= v &&
			g.NumLiveEdges() == e-st.Edges && g.NumLiveVertices() == v-st.Vertices
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLargerRandomGraphsCrossCheck runs fewer but bigger instances through
// every solver, including the pipelines.
func TestLargerRandomGraphsCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := datagen.DAGConfig{
		MinV: 12, MaxV: 25, EdgeProb: 0.25,
		MaxInteractions: 6, MaxTime: 200, MaxQty: 50,
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		g := datagen.RandomDAG(rng, cfg)
		lpFlow, err := MaxFlowLP(g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tegFlow := teg.MaxFlow(g)
		if !feq(lpFlow, tegFlow) {
			t.Fatalf("trial %d: LP=%g TEG=%g", trial, lpFlow, tegFlow)
		}
		ps, err := PreSim(g, EngineLP)
		if err != nil {
			t.Fatalf("trial %d: PreSim: %v", trial, err)
		}
		if !feq(ps.Flow, tegFlow) {
			t.Fatalf("trial %d: PreSim=%g, want %g", trial, ps.Flow, tegFlow)
		}
		if Greedy(g) > tegFlow+ftol {
			t.Fatalf("trial %d: greedy exceeds max", trial)
		}
	}
}
