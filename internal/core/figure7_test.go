package core

import (
	"math"
	"math/rand"
	"testing"

	"flownet/internal/teg"
	"flownet/internal/tin"
)

// figure7 reconstructs the simplification walkthrough of the paper's
// Figure 7 (the figure text is garbled in the available source, but the
// shown arrival sequences pin the graph down):
//
//	s→y (1,2),(4,3),(5,2); y→z (3,3),(7,1)      — first source chain
//	s→x (9,2),(12,5);      x→w (10,3),(14,4)    — second source chain
//	s→z (2,5),(11,2)                            — pre-existing parallel edge
//	z→w (6,3),(8,6);  w→t (15,7)
//	s→u (13,5);       u→t (16,6)
//
// Vertices: s=0, y=1, z=2, x=3, w=4, u=5, t=6.
func figure7() *tin.Graph {
	g := tin.NewGraph(7, 0, 6)
	g.AddSeq(g.AddEdge(0, 1), [2]float64{1, 2}, [2]float64{4, 3}, [2]float64{5, 2})
	g.AddSeq(g.AddEdge(1, 2), [2]float64{3, 3}, [2]float64{7, 1})
	g.AddSeq(g.AddEdge(0, 3), [2]float64{9, 2}, [2]float64{12, 5})
	g.AddSeq(g.AddEdge(3, 4), [2]float64{10, 3}, [2]float64{14, 4})
	g.AddSeq(g.AddEdge(0, 2), [2]float64{2, 5}, [2]float64{11, 2})
	g.AddSeq(g.AddEdge(2, 4), [2]float64{6, 3}, [2]float64{8, 6})
	g.AddSeq(g.AddEdge(4, 6), [2]float64{15, 7})
	g.AddSeq(g.AddEdge(0, 5), [2]float64{13, 5})
	g.AddSeq(g.AddEdge(5, 6), [2]float64{16, 6})
	g.Finalize()
	return g
}

func TestPaperFigure7Simplification(t *testing.T) {
	g := figure7()
	before, err := MaxFlowLP(g)
	if err != nil {
		t.Fatalf("MaxFlowLP: %v", err)
	}
	tegBefore := teg.MaxFlow(g)
	if math.Abs(before-tegBefore) > 1e-9 {
		t.Fatalf("LP %g != TEG %g on figure 7 graph", before, tegBefore)
	}

	Simplify(g)

	// The paper's figure stops at the state of Figure 7(d); our Simplify
	// iterates to the fixpoint, where the graph — every vertex of which
	// lies on some source chain after the 7(d) state — legally collapses
	// to a single edge (s,t): the reduced s→w edge (6,3),(8,5),(10,2),(14,4)
	// holds 14 units, of which w→t (15,7) forwards 7, and the s→u→t chain
	// contributes (16,5).
	if g.NumLiveVertices() != 2 || g.NumLiveEdges() != 1 {
		t.Fatalf("expected full collapse to one edge, got:\n%s", g)
	}
	st := g.FindEdge(0, 6)
	want := [][2]float64{{15, 7}, {16, 5}}
	seq := g.Edges[st].Seq
	if len(seq) != len(want) {
		t.Fatalf("s->t sequence %v, want %v", seq, want)
	}
	for i, w := range want {
		if seq[i].Time != w[0] || seq[i].Qty != w[1] {
			t.Errorf("s->t[%d] = %v, want (%g,%g)", i, seq[i], w[0], w[1])
		}
	}

	// Flow is preserved through the full collapse.
	after, err := MaxFlowLP(g)
	if err != nil {
		t.Fatalf("MaxFlowLP after: %v", err)
	}
	if math.Abs(after-before) > 1e-9 {
		t.Errorf("simplification changed flow %g -> %g", before, after)
	}
	if math.Abs(after-12) > 1e-9 {
		t.Errorf("figure 7 max flow = %g, want 12", after)
	}

	// The paper reports the LP shrinking from 9 variables to 3. Our
	// reconstruction of the garbled figure has 8 non-source interactions
	// (off by one somewhere in the unrecoverable part), and the full
	// fixpoint leaves 0 (no interaction originates at a non-source vertex).
	varsBefore := BuildLP(figure7()).Prob.NumVars()
	varsAfter := BuildLP(g).Prob.NumVars()
	if varsBefore != 8 {
		t.Errorf("initial LP variables = %d, want 8 (cf. 9 in the paper's original)", varsBefore)
	}
	if varsAfter != 0 {
		t.Errorf("reduced LP variables = %d, want 0", varsAfter)
	}
}

func TestPaperFigure7IntermediateState(t *testing.T) {
	// Figure 7(c)/(d)'s intermediate sequences, pinned by truncating the
	// graph at w (making w the sink stops the cascade there): after
	// reducing s→y→z, merging with the parallel (s,z), and reducing the
	// resulting chain s→z→w plus the chain s→x→w, the merged edge (s,w)
	// carries exactly (6,3),(8,5),(10,2),(14,4) — the sequence shown in
	// Figure 7(d).
	g := tin.NewGraph(5, 0, 4) // s=0, y=1, z=2, x=3, w=4
	g.AddSeq(g.AddEdge(0, 1), [2]float64{1, 2}, [2]float64{4, 3}, [2]float64{5, 2})
	g.AddSeq(g.AddEdge(1, 2), [2]float64{3, 3}, [2]float64{7, 1})
	g.AddSeq(g.AddEdge(0, 3), [2]float64{9, 2}, [2]float64{12, 5})
	g.AddSeq(g.AddEdge(3, 4), [2]float64{10, 3}, [2]float64{14, 4})
	g.AddSeq(g.AddEdge(0, 2), [2]float64{2, 5}, [2]float64{11, 2})
	g.AddSeq(g.AddEdge(2, 4), [2]float64{6, 3}, [2]float64{8, 6})
	g.Finalize()
	before, err := MaxFlowLP(g)
	if err != nil {
		t.Fatalf("MaxFlowLP: %v", err)
	}

	st := Simplify(g)
	if st.ChainsReduced < 3 {
		t.Errorf("chains reduced = %d, want >= 3 (s→y→z, s→x→w, s→z→w)", st.ChainsReduced)
	}
	sw := g.FindEdge(0, 4)
	if sw < 0 {
		t.Fatalf("edge s->w missing:\n%s", g)
	}
	want := [][2]float64{{6, 3}, {8, 5}, {10, 2}, {14, 4}}
	seq := g.Edges[sw].Seq
	if len(seq) != len(want) {
		t.Fatalf("s->w sequence %v, want %v", seq, want)
	}
	for i, w := range want {
		if seq[i].Time != w[0] || seq[i].Qty != w[1] {
			t.Errorf("s->w[%d] = %v, want (%g,%g)", i, seq[i], w[0], w[1])
		}
	}
	after, err := MaxFlowLP(g)
	if err != nil || math.Abs(after-before) > 1e-9 {
		t.Errorf("flow changed %g -> %g (%v)", before, after, err)
	}
}

func TestPaperFigure7ChainArrivalsStepwise(t *testing.T) {
	// The two independent chain reductions shown in Figure 7(b), isolated:
	// chain s→y→z gives {(3,2),(7,1)}; chain s→x→w gives {(10,2),(14,4)}.
	chain1 := tin.NewGraph(3, 0, 2)
	chain1.AddSeq(chain1.AddEdge(0, 1), [2]float64{1, 2}, [2]float64{4, 3}, [2]float64{5, 2})
	chain1.AddSeq(chain1.AddEdge(1, 2), [2]float64{3, 3}, [2]float64{7, 1})
	chain1.Finalize()
	_, arr := GreedyArrivals(chain1)
	if len(arr) != 2 || arr[0].Time != 3 || arr[0].Qty != 2 || arr[1].Time != 7 || arr[1].Qty != 1 {
		t.Errorf("chain s->y->z arrivals %v, want [(3,2) (7,1)]", arr)
	}

	chain2 := tin.NewGraph(3, 0, 2)
	chain2.AddSeq(chain2.AddEdge(0, 1), [2]float64{9, 2}, [2]float64{12, 5})
	chain2.AddSeq(chain2.AddEdge(1, 2), [2]float64{10, 3}, [2]float64{14, 4})
	chain2.Finalize()
	_, arr = GreedyArrivals(chain2)
	if len(arr) != 2 || arr[0].Time != 10 || arr[0].Qty != 2 || arr[1].Time != 14 || arr[1].Qty != 4 {
		t.Errorf("chain s->x->w arrivals %v, want [(10,2) (14,4)]", arr)
	}
}

// figure2Network is the transaction network of the paper's Figure 2(a):
// u1=0, u2=1, u3=2, u4=3.
func figure2Network() *tin.Network {
	b := tin.NewBuilder(4)
	b.AddInteraction(0, 1, 2, 5)
	b.AddInteraction(0, 1, 4, 3)
	b.AddInteraction(0, 1, 8, 1)
	b.AddInteraction(1, 2, 3, 4)
	b.AddInteraction(1, 2, 5, 2)
	b.AddInteraction(2, 0, 1, 2)
	b.AddInteraction(2, 0, 6, 5)
	b.AddInteraction(2, 3, 9, 4)
	b.AddInteraction(3, 0, 7, 6)
	b.AddInteraction(1, 3, 10, 1)
	return b.Finalize()
}

// networkPath returns the interaction sequences along the given vertices.
func networkPath(t *testing.T, n *tin.Network, verts ...tin.VertexID) [][]tin.Interaction {
	t.Helper()
	var seqs [][]tin.Interaction
	for i := 0; i+1 < len(verts); i++ {
		e, ok := n.HasEdge(verts[i], verts[i+1])
		if !ok {
			t.Fatalf("no edge %d->%d", verts[i], verts[i+1])
		}
		seqs = append(seqs, n.Edge(e).Seq)
	}
	return seqs
}

func TestPathArrivalsMatchesPaper(t *testing.T) {
	// Section 5.1: greedy arrivals into u3 along u1→u2→u3 are
	// {(3,$4),(5,$2)}.
	n := figure2Network()
	var arr []Arrival
	flow := PathArrivals(networkPath(t, n, 0, 1, 2), &arr)
	if flow != 6 {
		t.Errorf("flow=%g, want 6", flow)
	}
	if len(arr) != 2 || arr[0].Time != 3 || arr[0].Qty != 4 || arr[1].Time != 5 || arr[1].Qty != 2 {
		t.Errorf("arrivals=%v, want [(3,4) (5,2)]", arr)
	}
}

func TestPathArrivalsCyclic(t *testing.T) {
	// u1→u2→u3→u1: positional buffers make the shared endpoint behave as
	// separate source and sink copies; flow is 5 (Figure 2(c)).
	n := figure2Network()
	var arr []Arrival
	flow := PathArrivals(networkPath(t, n, 0, 1, 2, 0), &arr)
	if flow != 5 {
		t.Errorf("flow=%g, want 5", flow)
	}
	if len(arr) != 1 || arr[0].Time != 6 || arr[0].Qty != 5 {
		t.Errorf("arrivals=%v, want [(6,5)]", arr)
	}
}

func TestPathArrivalsSourceChain(t *testing.T) {
	// What Simplify asks of the scan: the arrivals at the last vertex of a
	// source chain inside a larger graph (Figure 7(b): s→y→z and s→x→w)
	// equal GreedyArrivals on that chain taken alone, Ords aside — the
	// chain inherits the Ords of the whole graph.
	g := figure7()
	for _, chain := range [][]tin.EdgeID{{0, 1}, {2, 3}} {
		alone := tin.NewGraph(3, 0, 2)
		var seqs [][]tin.Interaction
		for i, e := range chain {
			seqs = append(seqs, g.Edges[e].Seq)
			ae := alone.AddEdge(tin.VertexID(i), tin.VertexID(i+1))
			for _, ia := range g.Edges[e].Seq {
				alone.AddInteraction(ae, ia.Time, ia.Qty)
			}
		}
		alone.Finalize()
		wantFlow, want := GreedyArrivals(alone)
		var got []Arrival
		flow := PathArrivals(seqs, &got)
		if flow != wantFlow || len(got) != len(want) || len(got) == 0 {
			t.Fatalf("chain %v: flow %g arrivals %v, chain alone %g %v", chain, flow, got, wantFlow, want)
		}
		for i := range want {
			if got[i].Time != want[i].Time || got[i].Qty != want[i].Qty {
				t.Errorf("chain %v arrival %d: %v, chain alone %v", chain, i, got[i], want[i])
			}
		}
	}
}

// TestPathArrivalsLongChain: a path longer than the positional scan keeps
// on the stack (eight runs) takes its scratch from the heap and still
// equals GreedyArrivals on the path's graph, bits included.
func TestPathArrivalsLongChain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const hops = 12
	g := tin.NewGraph(hops+1, 0, hops)
	for i := 0; i < hops; i++ {
		e := g.AddEdge(tin.VertexID(i), tin.VertexID(i+1))
		for k := 1 + rng.Intn(6); k > 0; k-- {
			g.AddInteraction(e, float64(3*i+rng.Intn(8)), float64(1+rng.Intn(999))/100)
		}
	}
	g.Finalize()
	seqs := make([][]tin.Interaction, hops)
	for i := range seqs {
		seqs[i] = g.Edges[i].Seq
	}
	wantFlow, want := GreedyArrivals(g)
	var got []Arrival
	flow := PathArrivals(seqs, &got)
	if math.Float64bits(flow) != math.Float64bits(wantFlow) || len(got) != len(want) {
		t.Fatalf("flow %v arrivals %v, GreedyArrivals %v %v", flow, got, wantFlow, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("arrival %d: %v, GreedyArrivals %v", i, got[i], want[i])
		}
	}
	if wantFlow == 0 {
		t.Error("the chain carries nothing; the check is vacuous")
	}
}
