package tin

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// figure3Graph builds the running example of the paper's Figure 3:
// s->y (1,5); s->z (2,3); y->z (3,5); y->t (4,4); z->t (5,1).
// Vertices: s=0, y=1, z=2, t=3.
func figure3Graph() *Graph {
	g := NewGraph(4, 0, 3)
	sy := g.AddEdge(0, 1)
	sz := g.AddEdge(0, 2)
	yz := g.AddEdge(1, 2)
	yt := g.AddEdge(1, 3)
	zt := g.AddEdge(2, 3)
	g.AddInteraction(sy, 1, 5)
	g.AddInteraction(sz, 2, 3)
	g.AddInteraction(yz, 3, 5)
	g.AddInteraction(yt, 4, 4)
	g.AddInteraction(zt, 5, 1)
	g.Finalize()
	return g
}

func TestNewGraphPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"too few vertices", func() { NewGraph(1, 0, 0) }},
		{"source out of range", func() { NewGraph(3, 5, 1) }},
		{"sink out of range", func() { NewGraph(3, 0, 7) }},
		{"source equals sink", func() { NewGraph(3, 1, 1) }},
		{"negative source", func() { NewGraph(3, -1, 1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			c.fn()
		})
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := NewGraph(3, 0, 2)
	for _, c := range []struct {
		name     string
		from, to VertexID
	}{
		{"self loop", 1, 1},
		{"from out of range", 5, 1},
		{"to out of range", 0, 9},
		{"negative", -1, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			g.AddEdge(c.from, c.to)
		})
	}
}

func TestAddInteractionValidation(t *testing.T) {
	g := NewGraph(2, 0, 1)
	e := g.AddEdge(0, 1)
	for _, c := range []struct {
		name string
		t, q float64
	}{
		{"negative qty", 1, -1},
		{"nan qty", 1, math.NaN()},
		{"nan time", math.NaN(), 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			g.AddInteraction(e, c.t, c.q)
		})
	}
}

func TestFinalizeAssignsCanonicalOrder(t *testing.T) {
	g := NewGraph(3, 0, 2)
	a := g.AddEdge(0, 1)
	b := g.AddEdge(1, 2)
	// Insert out of time order, with a timestamp tie across edges.
	g.AddInteraction(a, 5, 1) // inserted first at t=5
	g.AddInteraction(b, 5, 2) // inserted second at t=5: must come after
	g.AddInteraction(a, 1, 3)
	g.AddInteraction(b, 0.5, 4)
	g.Finalize()

	evs := g.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	wantQty := []float64{4, 3, 1, 2}
	for i, ev := range evs {
		if ev.Qty != wantQty[i] {
			t.Errorf("event %d: qty %g, want %g", i, ev.Qty, wantQty[i])
		}
		if int64(i) != ev.Ord {
			t.Errorf("event %d has Ord %d", i, ev.Ord)
		}
	}
	// Edge sequences must be sorted by Ord.
	for id := range g.Edges {
		seq := g.Edges[id].Seq
		for i := 1; i < len(seq); i++ {
			if seq[i-1].Ord >= seq[i].Ord {
				t.Errorf("edge %d sequence not Ord-sorted", id)
			}
		}
	}
}

func TestFinalizeTwicePanics(t *testing.T) {
	g := NewGraph(2, 0, 1)
	g.AddEdge(0, 1)
	g.Finalize()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	g.Finalize()
}

func TestMutationAfterFinalizePanics(t *testing.T) {
	g := NewGraph(2, 0, 1)
	e := g.AddEdge(0, 1)
	g.Finalize()
	t.Run("AddEdge", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatalf("expected panic")
			}
		}()
		g.AddEdge(0, 1)
	})
	t.Run("AddInteraction", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatalf("expected panic")
			}
		}()
		g.AddInteraction(e, 1, 1)
	})
}

func TestDegreesAndDeletes(t *testing.T) {
	g := figure3Graph()
	if got := g.OutDegree(0); got != 2 {
		t.Errorf("outdeg(s)=%d, want 2", got)
	}
	if got := g.InDegree(3); got != 2 {
		t.Errorf("indeg(t)=%d, want 2", got)
	}
	if g.NumLiveEdges() != 5 || g.NumLiveVertices() != 4 || g.NumInteractions() != 5 {
		t.Fatalf("live counts: E=%d V=%d IA=%d", g.NumLiveEdges(), g.NumLiveVertices(), g.NumInteractions())
	}

	yz := g.FindEdge(1, 2)
	if yz < 0 {
		t.Fatalf("edge y->z not found")
	}
	g.DeleteEdge(yz)
	if g.EdgeAlive(yz) {
		t.Errorf("edge still alive after delete")
	}
	if g.NumLiveEdges() != 4 || g.NumInteractions() != 4 {
		t.Errorf("after edge delete: E=%d IA=%d", g.NumLiveEdges(), g.NumInteractions())
	}
	if got := g.OutDegree(1); got != 1 {
		t.Errorf("outdeg(y)=%d, want 1", got)
	}
	g.DeleteEdge(yz) // idempotent
	if g.NumLiveEdges() != 4 {
		t.Errorf("double delete changed edge count")
	}

	g.DeleteVertex(2) // z: removes s->z and z->t
	if g.VertexAlive(2) {
		t.Errorf("vertex alive after delete")
	}
	if g.NumLiveEdges() != 2 || g.NumLiveVertices() != 3 {
		t.Errorf("after vertex delete: E=%d V=%d", g.NumLiveEdges(), g.NumLiveVertices())
	}
	g.DeleteVertex(2) // idempotent
	if g.NumLiveVertices() != 3 {
		t.Errorf("double vertex delete changed count")
	}
}

func TestDeleteInteractionAndSetSeq(t *testing.T) {
	g := NewGraph(2, 0, 1)
	e := g.AddEdge(0, 1)
	g.AddSeq(e, [2]float64{1, 5}, [2]float64{2, 3}, [2]float64{3, 7})
	g.Finalize()
	g.DeleteInteraction(e, 1)
	if g.NumInteractions() != 2 {
		t.Fatalf("IA=%d, want 2", g.NumInteractions())
	}
	seq := g.Edges[e].Seq
	if len(seq) != 2 || seq[0].Qty != 5 || seq[1].Qty != 7 {
		t.Fatalf("unexpected sequence after delete: %v", seq)
	}
	g.SetSeq(e, []Interaction{{Time: 9, Qty: 1, Ord: 100}})
	if g.NumInteractions() != 1 {
		t.Fatalf("IA=%d after SetSeq, want 1", g.NumInteractions())
	}
}

// TestInOrderRejectsBrokenOrds pins the check that replaced placement's:
// an interaction whose Ord is not the one the graph's index records for
// its edge — one outside [0, OrdBound), or one another edge already holds
// — is left behind by the walk, and a complete walk panics.
func TestInOrderRejectsBrokenOrds(t *testing.T) {
	for name, ord := range map[string]int64{"outside the bound": 5, "negative": -1, "taken twice": 0} {
		g := figure3Graph()
		g.Edges[4].Seq[0].Ord = ord // z->t held Ord 4
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.HasPrefix(fmt.Sprint(r), "tin:") {
					t.Errorf("%s: Events recovered %v, want a tin: panic", name, r)
				}
			}()
			g.Events()
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	g := figure3Graph()
	c := g.Clone()
	yz := c.FindEdge(1, 2)
	c.DeleteEdge(yz)
	c.DeleteVertex(2)
	c.Edges[0].Seq[0].Qty = 99

	if g.NumLiveEdges() != 5 || g.NumLiveVertices() != 4 {
		t.Errorf("clone mutation affected original: E=%d V=%d", g.NumLiveEdges(), g.NumLiveVertices())
	}
	if g.Edges[0].Seq[0].Qty == 99 {
		t.Errorf("clone shares interaction storage with original")
	}
}

func TestTopoOrder(t *testing.T) {
	g := figure3Graph()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := make(map[VertexID]int)
	for i, v := range order {
		pos[v] = i
	}
	for id := range g.Edges {
		e := &g.Edges[id]
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %d->%d violates topological order", e.From, e.To)
		}
	}
	if !g.IsDAG() {
		t.Errorf("figure 3 graph should be a DAG")
	}
}

func TestTopoOrderCycle(t *testing.T) {
	g := NewGraph(4, 0, 3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1) // cycle 1 <-> 2
	g.AddEdge(2, 3)
	g.Finalize()
	if _, err := g.TopoOrder(); err == nil {
		t.Fatalf("expected cycle error")
	}
	if g.IsDAG() {
		t.Fatalf("IsDAG should be false")
	}
}

func TestTopoOrderSkipsDeleted(t *testing.T) {
	g := NewGraph(4, 0, 3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	e := g.AddEdge(2, 1)
	g.AddEdge(2, 3)
	g.Finalize()
	g.DeleteEdge(e) // removing the back edge makes it a DAG
	if !g.IsDAG() {
		t.Fatalf("graph should be a DAG after deleting back edge")
	}
}

func TestValidate(t *testing.T) {
	g := figure3Graph()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	// Unfinalized graph.
	u := NewGraph(2, 0, 1)
	u.AddEdge(0, 1)
	if err := u.Validate(); err == nil {
		t.Errorf("expected error for unfinalized graph")
	}

	// Source with incoming edge.
	b := NewGraph(3, 0, 2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(1, 2)
	b.Finalize()
	if err := b.Validate(); err == nil {
		t.Errorf("expected error for source with incoming edge")
	}

	// Sink with outgoing edge.
	c := NewGraph(3, 0, 2)
	c.AddEdge(0, 1)
	c.AddEdge(1, 2)
	c.AddEdge(2, 1)
	c.Finalize()
	if err := c.Validate(); err == nil {
		t.Errorf("expected error for sink with outgoing edge")
	}

	// Disconnected graph.
	d := NewGraph(4, 0, 3)
	d.AddEdge(0, 3)
	d.AddEdge(1, 2)
	d.Finalize()
	if err := d.Validate(); err == nil {
		t.Errorf("expected error for disconnected graph")
	}

	// Deleted source / sink.
	e := figure3Graph()
	e.DeleteVertex(0)
	if err := e.Validate(); err == nil {
		t.Errorf("expected error for deleted source")
	}
	f := figure3Graph()
	f.DeleteVertex(3)
	if err := f.Validate(); err == nil {
		t.Errorf("expected error for deleted sink")
	}
}

func TestGraphString(t *testing.T) {
	g := figure3Graph()
	s := g.String()
	for _, want := range []string{"0->1: (1,5)", "2->3: (5,1)", "s=0", "t=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
	g.DeleteEdge(g.FindEdge(1, 2))
	if strings.Contains(g.String(), "1->2") {
		t.Errorf("String() shows deleted edge")
	}
}

func TestFindEdge(t *testing.T) {
	g := figure3Graph()
	if g.FindEdge(0, 3) != -1 {
		t.Errorf("found nonexistent edge")
	}
	e := g.FindEdge(0, 1)
	if e < 0 || g.Edges[e].From != 0 || g.Edges[e].To != 1 {
		t.Errorf("FindEdge(0,1) wrong: %d", e)
	}
	g.DeleteEdge(e)
	if g.FindEdge(0, 1) != -1 {
		t.Errorf("FindEdge returned dead edge")
	}
}

func TestFirstOutEdge(t *testing.T) {
	g := figure3Graph()
	e := g.FirstOutEdge(2)
	if g.Edges[e].From != 2 || g.Edges[e].To != 3 {
		t.Errorf("FirstOutEdge(z) wrong")
	}
	g.DeleteEdge(e)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for vertex with no out edges")
		}
	}()
	g.FirstOutEdge(2)
}

func TestEdgeHelpers(t *testing.T) {
	g := NewGraph(2, 0, 1)
	e := g.AddEdge(0, 1)
	g.AddSeq(e, [2]float64{3, 4}, [2]float64{1, 2}, [2]float64{7, 6})
	g.Finalize()
	ed := &g.Edges[e]
	if got := ed.TotalQty(); got != 12 {
		t.Errorf("TotalQty=%g, want 12", got)
	}
}

func TestInteractionString(t *testing.T) {
	cases := []struct {
		ia   Interaction
		want string
	}{
		{Interaction{Time: 1, Qty: 5}, "(1,5)"},
		{Interaction{Time: 2.5, Qty: 0.25}, "(2.5,0.25)"},
		{Interaction{Time: math.Inf(-1), Qty: math.Inf(1)}, "(-inf,+inf)"},
	}
	for _, c := range cases {
		if got := c.ia.String(); got != c.want {
			t.Errorf("String()=%q, want %q", got, c.want)
		}
	}
}

func TestInteractionLess(t *testing.T) {
	a := Interaction{Time: 1, Ord: 5}
	b := Interaction{Time: 2, Ord: 1}
	c := Interaction{Time: 1, Ord: 6}
	if !a.Less(b) || b.Less(a) {
		t.Errorf("time ordering wrong")
	}
	if !a.Less(c) || c.Less(a) {
		t.Errorf("ord tie-break wrong")
	}
	if a.Less(a) {
		t.Errorf("irreflexivity violated")
	}
}
