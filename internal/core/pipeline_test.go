package core

import (
	"math"
	"testing"

	"flownet/internal/tin"
)

func TestPipelineClassA(t *testing.T) {
	// Chain: soluble by greedy directly.
	g := tin.NewGraph(3, 0, 2)
	g.AddSeq(g.AddEdge(0, 1), [2]float64{1, 5})
	g.AddSeq(g.AddEdge(1, 2), [2]float64{2, 3})
	g.Finalize()
	for _, run := range []struct {
		name string
		fn   func(*tin.Graph, Engine) (Result, error)
	}{{"Pre", Pre}, {"PreSim", PreSim}} {
		res, err := run.fn(g, EngineLP)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if res.Class != ClassA {
			t.Errorf("%s: class %s, want A", run.name, res.Class)
		}
		if res.Flow != 3 {
			t.Errorf("%s: flow %g, want 3", run.name, res.Flow)
		}
		if res.UsedEngine {
			t.Errorf("%s: engine should not run for class A", run.name)
		}
	}
}

func TestPipelineClassB(t *testing.T) {
	// y has two outgoing edges (not Lemma-2 soluble), but one of them
	// carries only an interaction preceding all of y's inflows, so
	// preprocessing empties and removes it, leaving a soluble graph.
	g := tin.NewGraph(4, 0, 3)                  // s, y, z, t
	g.AddSeq(g.AddEdge(0, 1), [2]float64{5, 4}) // s->y
	g.AddSeq(g.AddEdge(1, 2), [2]float64{1, 9}) // y->z, too early: removed
	g.AddSeq(g.AddEdge(1, 3), [2]float64{7, 4}) // y->t
	g.AddSeq(g.AddEdge(2, 3), [2]float64{2, 5}) // z->t, dies with z
	g.Finalize()
	if GreedySoluble(g) {
		t.Fatalf("test graph should not be class A")
	}
	res, err := Pre(g, EngineLP)
	if err != nil {
		t.Fatalf("Pre: %v", err)
	}
	if res.Class != ClassB {
		t.Errorf("class %s, want B", res.Class)
	}
	if res.Flow != 4 {
		t.Errorf("flow %g, want 4", res.Flow)
	}
	if res.UsedEngine {
		t.Errorf("engine should not run for class B")
	}
	if res.Pre.Edges == 0 || res.Pre.Vertices == 0 {
		t.Errorf("expected edge and vertex deletions: %+v", res.Pre)
	}
}

func TestPipelineClassC(t *testing.T) {
	g := figure3() // needs reservation: class C
	res, err := Pre(g, EngineLP)
	if err != nil {
		t.Fatalf("Pre: %v", err)
	}
	if res.Class != ClassC || !res.UsedEngine {
		t.Errorf("class %s used=%v, want C with engine", res.Class, res.UsedEngine)
	}
	if math.Abs(res.Flow-5) > 1e-9 {
		t.Errorf("flow %g, want 5", res.Flow)
	}
	if res.LPVariables == 0 {
		t.Errorf("LP variable count not reported")
	}

	resT, err := Pre(g, EngineTEG)
	if err != nil {
		t.Fatalf("Pre TEG: %v", err)
	}
	if math.Abs(resT.Flow-5) > 1e-9 {
		t.Errorf("TEG flow %g, want 5", resT.Flow)
	}
	if resT.LPVariables != 0 {
		t.Errorf("TEG engine should not report LP variables")
	}
}

func TestPipelineZeroFlowAfterPreprocess(t *testing.T) {
	// All of v's out-interactions precede its inflow; v and everything
	// upstream collapses, leaving no path to the sink. Another inner
	// vertex keeps two outgoing edges so the graph is not class A.
	g := tin.NewGraph(5, 0, 4)                  // s, v, a, b, t
	g.AddSeq(g.AddEdge(0, 1), [2]float64{5, 2}) // s->v
	g.AddSeq(g.AddEdge(1, 4), [2]float64{1, 9}) // v->t (too early)
	g.AddSeq(g.AddEdge(0, 2), [2]float64{2, 3}) // s->a
	g.AddSeq(g.AddEdge(2, 3), [2]float64{1, 1}) // a->b (too early)
	g.AddSeq(g.AddEdge(2, 4), [2]float64{1, 2}) // a->t (too early)
	g.AddSeq(g.AddEdge(3, 4), [2]float64{9, 9}) // b->t
	g.Finalize()
	res, err := Pre(g, EngineLP)
	if err != nil {
		t.Fatalf("Pre: %v", err)
	}
	if res.Flow != 0 {
		t.Errorf("flow %g, want 0", res.Flow)
	}
	if res.Class != ClassB {
		t.Errorf("class %s, want B (trivially solved after preprocessing)", res.Class)
	}
}

func TestPipelineCyclicInputError(t *testing.T) {
	g := tin.NewGraph(4, 0, 3)
	g.AddSeq(g.AddEdge(0, 1), [2]float64{1, 5})
	g.AddSeq(g.AddEdge(1, 2), [2]float64{2, 5})
	g.AddSeq(g.AddEdge(2, 1), [2]float64{3, 5})
	g.AddSeq(g.AddEdge(1, 3), [2]float64{4, 5})
	g.AddSeq(g.AddEdge(2, 3), [2]float64{5, 5})
	g.Finalize()
	if _, err := Pre(g, EngineLP); err == nil {
		t.Errorf("Pre accepted a cyclic graph")
	}
	if _, err := PreSim(g, EngineLP); err == nil {
		t.Errorf("PreSim accepted a cyclic graph")
	}
}

func TestPipelineDoesNotMutateInput(t *testing.T) {
	g := figure1a()
	ia, e, v := g.NumInteractions(), g.NumLiveEdges(), g.NumLiveVertices()
	if _, err := PreSim(g, EngineLP); err != nil {
		t.Fatalf("PreSim: %v", err)
	}
	if g.NumInteractions() != ia || g.NumLiveEdges() != e || g.NumLiveVertices() != v {
		t.Errorf("PreSim mutated its input")
	}
}

func TestSolveFigure3(t *testing.T) {
	want := Result{Flow: 5, Class: ClassC, UsedEngine: true}
	if res := Solve(figure3()); res != want {
		t.Errorf("Solve = %+v, want %+v", res, want)
	}
}

func TestEngineAndClassStrings(t *testing.T) {
	if EngineLP.String() != "lp" || EngineTEG.String() != "teg" {
		t.Errorf("engine strings wrong")
	}
	if Engine(9).String() == "" {
		t.Errorf("unknown engine should still render")
	}
	if ClassA.String() != "A" || ClassB.String() != "B" || ClassC.String() != "C" {
		t.Errorf("class strings wrong")
	}
}

func TestSimplifyMergesParallelSourceEdges(t *testing.T) {
	// Chain s->a->z plus existing edge s->z (Figure 7(c)'s merge): after
	// reduction the two (s,z) edges must merge into one sequence ordered
	// canonically.
	g := tin.NewGraph(5, 0, 4)                                     // s, a, z, w, t
	g.AddSeq(g.AddEdge(0, 1), [2]float64{1, 2}, [2]float64{4, 3})  // s->a
	g.AddSeq(g.AddEdge(1, 2), [2]float64{3, 2}, [2]float64{7, 1})  // a->z
	g.AddSeq(g.AddEdge(0, 2), [2]float64{2, 5}, [2]float64{11, 2}) // s->z (parallel target)
	g.AddSeq(g.AddEdge(2, 3), [2]float64{8, 6})                    // z->w
	g.AddSeq(g.AddEdge(2, 4), [2]float64{9, 1})                    // z->t
	g.AddSeq(g.AddEdge(3, 4), [2]float64{15, 7})                   // w->t
	g.Finalize()

	before := mustMax(t, g)
	st := Simplify(g)
	if st.ChainsReduced == 0 || st.EdgesMerged == 0 {
		t.Fatalf("expected a chain reduction with a merge: %+v", st)
	}
	sz := g.FindEdge(0, 2)
	if sz < 0 {
		t.Fatalf("merged edge s->z missing")
	}
	seq := g.Edges[sz].Seq
	// Chain arrivals: (3,2) [a has 2 at t=3] and (7,1) [a has 3 left, cap 1]
	// merged with existing (2,5),(11,2): canonical order 2,3,7,11.
	wantTimes := []float64{2, 3, 7, 11}
	wantQtys := []float64{5, 2, 1, 2}
	if len(seq) != 4 {
		t.Fatalf("merged sequence %v, want 4 interactions", seq)
	}
	for i := range seq {
		if seq[i].Time != wantTimes[i] || seq[i].Qty != wantQtys[i] {
			t.Errorf("merged[%d]=%v, want (%g,%g)", i, seq[i], wantTimes[i], wantQtys[i])
		}
	}
	for i := 1; i < len(seq); i++ {
		if seq[i-1].Ord >= seq[i].Ord {
			t.Errorf("merged sequence not in canonical order")
		}
	}
	if after := mustMax(t, g); math.Abs(before-after) > 1e-9 {
		t.Errorf("simplify changed flow %g -> %g", before, after)
	}
}

func TestSimplifyIterates(t *testing.T) {
	// s->a->b->z where z also has a second in-edge from s; after reducing
	// the chain and merging, z becomes an inner vertex of a new chain
	// s->z->t, which must also reduce, collapsing the graph to one edge.
	g := tin.NewGraph(5, 0, 4) // s,a,b,z,t
	g.AddSeq(g.AddEdge(0, 1), [2]float64{1, 4})
	g.AddSeq(g.AddEdge(1, 2), [2]float64{2, 3})
	g.AddSeq(g.AddEdge(2, 3), [2]float64{3, 2})
	g.AddSeq(g.AddEdge(0, 3), [2]float64{4, 1}) // s->z
	g.AddSeq(g.AddEdge(3, 4), [2]float64{5, 9}) // z->t
	g.Finalize()
	before := mustMax(t, g)
	st := Simplify(g)
	if st.ChainsReduced < 2 {
		t.Errorf("chains reduced = %d, want >= 2", st.ChainsReduced)
	}
	if g.NumLiveVertices() != 2 || g.NumLiveEdges() != 1 {
		t.Errorf("V=%d E=%d after full simplification, want 2,1", g.NumLiveVertices(), g.NumLiveEdges())
	}
	if after := mustMax(t, g); math.Abs(before-after) > 1e-9 {
		t.Errorf("flow changed %g -> %g", before, after)
	}
}

func TestSimplifyReducesLPVariableCount(t *testing.T) {
	// Section 4.2.4's selling point: the reduced graph has fewer LP
	// variables.
	g := figure1a()
	varsBefore := BuildLP(g).Prob.NumVars()
	h := g.Clone()
	if _, err := Preprocess(h); err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	Simplify(h)
	varsAfter := BuildLP(h).Prob.NumVars()
	if varsAfter >= varsBefore {
		t.Errorf("simplify did not reduce LP size: %d -> %d", varsBefore, varsAfter)
	}
}

func TestGreedyEmptyGraph(t *testing.T) {
	g := tin.NewGraph(2, 0, 1)
	g.AddEdge(0, 1)
	g.Finalize()
	if f := Greedy(g); f != 0 {
		t.Errorf("greedy on empty sequence = %g, want 0", f)
	}
	f, err := MaxFlowLP(g)
	if err != nil || f != 0 {
		t.Errorf("LP on empty sequence = %g, %v", f, err)
	}
}

func TestIsChainNegativeCases(t *testing.T) {
	g := figure3()
	if IsChain(g) {
		t.Errorf("figure 3 graph is not a chain")
	}
	// Disconnected extra vertex.
	h := tin.NewGraph(4, 0, 2)
	h.AddSeq(h.AddEdge(0, 1), [2]float64{1, 1})
	h.AddSeq(h.AddEdge(1, 2), [2]float64{2, 1})
	h.AddSeq(h.AddEdge(0, 3), [2]float64{3, 1}) // dead-end branch
	h.Finalize()
	if IsChain(h) {
		t.Errorf("graph with branch is not a chain")
	}
}

func TestZeroFlowConditions(t *testing.T) {
	g := figure3()
	if ZeroFlow(g) {
		t.Errorf("figure 3 graph has flow")
	}
	h := g.Clone()
	h.DeleteVertex(1)
	h.DeleteVertex(2)
	if !ZeroFlow(h) {
		t.Errorf("graph with no source out-edges should be zero-flow")
	}
}

func mustMax(t *testing.T, g *tin.Graph) float64 {
	t.Helper()
	f, err := MaxFlowLP(g)
	if err != nil {
		t.Fatalf("MaxFlowLP: %v", err)
	}
	return f
}
