package core

import (
	"math"
	"testing"

	"flownet/internal/teg"
	"flownet/internal/tin"
)

func TestSimplifyChainEndingAtSink(t *testing.T) {
	// Whole graph is one chain s->a->b->t: simplification collapses it to a
	// single (s,t) edge whose total equals the chain flow.
	g := tin.NewGraph(4, 0, 3)
	g.AddSeq(g.AddEdge(0, 1), [2]float64{1, 5}, [2]float64{6, 2})
	g.AddSeq(g.AddEdge(1, 2), [2]float64{2, 3}, [2]float64{7, 9})
	g.AddSeq(g.AddEdge(2, 3), [2]float64{3, 2}, [2]float64{8, 4})
	g.Finalize()
	want := Greedy(g)
	st := Simplify(g)
	if st.ChainsReduced != 1 || st.Vertices != 2 {
		t.Errorf("stats=%+v, want 1 chain, 2 vertices", st)
	}
	if g.NumLiveEdges() != 1 {
		t.Fatalf("edges=%d, want 1", g.NumLiveEdges())
	}
	e := g.FindEdge(0, 3)
	total := 0.0
	for _, ia := range g.Edges[e].Seq {
		total += ia.Qty
	}
	if math.Abs(total-want) > 1e-9 {
		t.Errorf("reduced edge total=%g, want %g", total, want)
	}
}

func TestSimplifyIgnoresNonSourceChains(t *testing.T) {
	// A chain in the middle of the graph (not source-anchored) must not be
	// touched: Lemma 3 only covers chains from the source.
	g := tin.NewGraph(6, 0, 5) // s, a, b, c, d, t: s->{a,b}, a->c->d->t, b->t... c,d chain but from a
	g.AddSeq(g.AddEdge(0, 1), [2]float64{1, 5})
	g.AddSeq(g.AddEdge(0, 2), [2]float64{2, 5})
	g.AddSeq(g.AddEdge(1, 3), [2]float64{3, 4})
	g.AddSeq(g.AddEdge(3, 4), [2]float64{4, 3})
	g.AddSeq(g.AddEdge(4, 5), [2]float64{5, 2})
	g.AddSeq(g.AddEdge(2, 5), [2]float64{6, 1})
	g.Finalize()
	// Chains from s: s->a is followed by a with in/out degree 1... a's
	// in-degree is 1 and out-degree 1, so s->a->c->d->t IS a source chain.
	// It reduces fully. Verify flow preservation either way.
	before := teg.MaxFlow(g)
	Simplify(g)
	if math.Abs(teg.MaxFlow(g)-before) > 1e-9 {
		t.Errorf("flow changed")
	}
}

func TestSimplifyStopsAtBranchingVertex(t *testing.T) {
	// s->a->b where b branches: the chain is s->a->b only (b is the chain
	// end, not an inner vertex).
	g := tin.NewGraph(5, 0, 4) // s,a,b,c,t
	g.AddSeq(g.AddEdge(0, 1), [2]float64{1, 9})
	g.AddSeq(g.AddEdge(1, 2), [2]float64{2, 8})
	g.AddSeq(g.AddEdge(2, 3), [2]float64{3, 4})
	g.AddSeq(g.AddEdge(2, 4), [2]float64{4, 4})
	g.AddSeq(g.AddEdge(3, 4), [2]float64{5, 4})
	g.Finalize()
	before := teg.MaxFlow(g)
	st := Simplify(g)
	if st.ChainsReduced != 1 {
		t.Errorf("chains=%d, want 1", st.ChainsReduced)
	}
	if !g.VertexAlive(2) {
		t.Errorf("branching vertex b must survive")
	}
	if g.VertexAlive(1) {
		t.Errorf("inner chain vertex a must be removed")
	}
	if math.Abs(teg.MaxFlow(g)-before) > 1e-9 {
		t.Errorf("flow changed")
	}
}

func TestPreprocessDeletesSourceOnCollapse(t *testing.T) {
	// Everything downstream of s dies, so deletion propagates up to the
	// source: zero flow.
	g := tin.NewGraph(4, 0, 3)                  // s, a, b, t
	g.AddSeq(g.AddEdge(0, 1), [2]float64{5, 2}) // s->a
	g.AddSeq(g.AddEdge(1, 2), [2]float64{1, 2}) // a->b: too early, dies
	g.AddSeq(g.AddEdge(2, 3), [2]float64{9, 5}) // b->t: b loses incoming, dies
	g.Finalize()
	if _, err := Preprocess(g); err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	if !ZeroFlow(g) {
		t.Fatalf("expected zero flow after collapse:\n%s", g)
	}
	if g.VertexAlive(1) || g.VertexAlive(2) {
		t.Errorf("inner vertices should be deleted")
	}
}

func TestPreprocessUpstreamRecursion(t *testing.T) {
	// w -> v chain where v loses its only out-edge: both w and v must go,
	// recursively (lines 18-22 of Algorithm 1).
	g := tin.NewGraph(6, 0, 5)                  // s, w, v, x, y, t
	g.AddSeq(g.AddEdge(0, 1), [2]float64{2, 5}) // s->w
	g.AddSeq(g.AddEdge(1, 2), [2]float64{3, 5}) // w->v
	g.AddSeq(g.AddEdge(2, 3), [2]float64{1, 5}) // v->x: too early -> dies
	g.AddSeq(g.AddEdge(0, 3), [2]float64{4, 2}) // s->x keeps x alive
	g.AddSeq(g.AddEdge(3, 4), [2]float64{5, 2}) // x->y
	g.AddSeq(g.AddEdge(4, 5), [2]float64{6, 2}) // y->t
	g.Finalize()
	if _, err := Preprocess(g); err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	if g.VertexAlive(2) {
		t.Errorf("v should be deleted (no outgoing edges)")
	}
	if g.VertexAlive(1) {
		t.Errorf("w should be deleted recursively (its only out-edge led to v)")
	}
	if !g.VertexAlive(3) || !g.VertexAlive(4) {
		t.Errorf("x and y must survive")
	}
	if f := Greedy(g); f != 2 {
		t.Errorf("flow=%g, want 2", f)
	}
}

func TestGreedySolubleIgnoresDeadVertices(t *testing.T) {
	g := figure3() // y has out-degree 2: not soluble
	if GreedySoluble(g) {
		t.Fatalf("precondition failed")
	}
	// Killing one of y's out-edges makes every inner vertex out-degree 1.
	g.DeleteEdge(g.FindEdge(1, 2))
	if !GreedySoluble(g) {
		t.Errorf("soluble after deleting y->z")
	}
	h := figure3()
	h.DeleteVertex(1) // deleting y entirely: only z remains inner
	if !GreedySoluble(h) {
		t.Errorf("soluble after deleting y")
	}
}

// TestGreedyAllocationBudget guards the scan kernel's visitor form: Greedy
// is the hot call of every class-A answer and allocates the buffer vector
// and the per-edge cursors of the walk over the graph's Ord index — 2
// allocations whatever the instance's size, so nothing is boxed or
// escapes per event and no event slice is built.
func TestGreedyAllocationBudget(t *testing.T) {
	for name, g := range map[string]*tin.Graph{"figure3": figure3(), "figure1a": figure1a(), "figure7": figure7()} {
		if got := testing.AllocsPerRun(100, func() { Greedy(g) }); got > 2 {
			t.Errorf("%s: Greedy allocates %v times per call, budget 2", name, got)
		}
	}
}

func TestGreedyTraceRowCount(t *testing.T) {
	g := figure3()
	rows := GreedyTrace(g)
	if len(rows) != g.NumInteractions() {
		t.Errorf("rows=%d, want %d", len(rows), g.NumInteractions())
	}
	for _, r := range rows {
		if len(r) != g.NumV {
			t.Errorf("row width=%d, want %d", len(r), g.NumV)
		}
	}
}

func TestGreedyArrivalsOrdered(t *testing.T) {
	g := figure1a()
	_, arr := GreedyArrivals(g)
	for i := 1; i < len(arr); i++ {
		if arr[i-1].Ord >= arr[i].Ord {
			t.Errorf("arrivals not in canonical order: %v", arr)
		}
	}
	var total float64
	for _, a := range arr {
		total += a.Qty
	}
	if math.Abs(total-Greedy(g)) > 1e-9 {
		t.Errorf("arrival sum %g != greedy flow %g", total, Greedy(g))
	}
}

func TestLPModelCounts(t *testing.T) {
	g := figure3()
	m := BuildLP(g)
	// Variables: interactions not from source: y->z, y->t, z->t = 3.
	if m.Prob.NumVars() != 3 {
		t.Errorf("vars=%d, want 3", m.Prob.NumVars())
	}
	// One constraint per such interaction.
	if m.Prob.NumConstraints() != 3 {
		t.Errorf("constraints=%d, want 3", m.Prob.NumConstraints())
	}
	if m.ConstFlow != 0 {
		t.Errorf("no direct source->sink edges, ConstFlow=%g", m.ConstFlow)
	}
}

func TestLPModelDirectSourceSink(t *testing.T) {
	g := tin.NewGraph(3, 0, 2)
	g.AddSeq(g.AddEdge(0, 2), [2]float64{1, 7}) // direct s->t
	g.AddSeq(g.AddEdge(0, 1), [2]float64{2, 3})
	g.AddSeq(g.AddEdge(1, 2), [2]float64{3, 2})
	g.Finalize()
	m := BuildLP(g)
	if m.ConstFlow != 7 {
		t.Errorf("ConstFlow=%g, want 7", m.ConstFlow)
	}
	f, err := MaxFlowLP(g)
	if err != nil || math.Abs(f-9) > 1e-9 {
		t.Errorf("flow=%g (%v), want 9", f, err)
	}
}

func TestWindowRestrictionComposesWithPipelines(t *testing.T) {
	// The §7 time-restricted variant: flows within a window, computed by
	// the unchanged machinery on the restricted graph.
	g := figure1a()
	w := g.RestrictWindow(2, 9) // drops (1,3) on s->x and (10,1) on z->t
	res, err := PreSim(w, EngineLP)
	if err != nil {
		t.Fatalf("PreSim: %v", err)
	}
	// Without (1,3), x never has funds before its (5,5) out-interaction;
	// y's 6 units still split 4 to t and cannot reach t via z (z->t's only
	// remaining interaction (2,3) precedes all inflows): flow 4.
	if math.Abs(res.Flow-4) > 1e-9 {
		t.Errorf("windowed flow=%g, want 4", res.Flow)
	}
	if f := teg.MaxFlow(w); math.Abs(f-4) > 1e-9 {
		t.Errorf("TEG windowed flow=%g, want 4", f)
	}
}
