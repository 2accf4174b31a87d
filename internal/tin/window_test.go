package tin

import (
	"testing"
)

func TestGraphRestrictWindow(t *testing.T) {
	g := figure3Graph() // interactions at t=1..5
	w := g.RestrictWindow(2, 4)
	if w.NumInteractions() != 3 {
		t.Fatalf("interactions=%d, want 3", w.NumInteractions())
	}
	// Edges s->y (t=1) and z->t (t=5) are emptied and deleted.
	if w.FindEdge(0, 1) != -1 {
		t.Errorf("edge s->y should be deleted")
	}
	if w.FindEdge(2, 3) != -1 {
		t.Errorf("edge z->t should be deleted")
	}
	// Surviving interactions keep their canonical order.
	evs := w.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i-1].Ord >= evs[i].Ord {
			t.Errorf("order broken after restriction")
		}
	}
	// The original graph is untouched.
	if g.NumInteractions() != 5 || g.NumLiveEdges() != 5 {
		t.Errorf("RestrictWindow mutated the original")
	}
}

func TestGraphRestrictWindowFull(t *testing.T) {
	g := figure3Graph()
	w := g.RestrictWindow(0, 100)
	if w.NumInteractions() != g.NumInteractions() || w.NumLiveEdges() != g.NumLiveEdges() {
		t.Errorf("full window changed the graph")
	}
	e := g.RestrictWindow(50, 60)
	if e.NumInteractions() != 0 || e.NumLiveEdges() != 0 {
		t.Errorf("empty window kept interactions")
	}
}

func TestGraphRestrictWindowBoundsInclusive(t *testing.T) {
	g := figure3Graph()
	w := g.RestrictWindow(1, 5)
	if w.NumInteractions() != 5 {
		t.Errorf("inclusive bounds dropped endpoint interactions: %d", w.NumInteractions())
	}
}

func TestNetworkRestrictWindow(t *testing.T) {
	n := figure2Network() // t = 1..10
	m := n.RestrictWindow(3, 7)
	// Interactions in [3,7]: (4,3) u1u2, (3,4)+(5,2) u2u3, (6,5) u3u1,
	// (7,6) u4u1 = 5.
	if m.NumInteractions() != 5 {
		t.Fatalf("interactions=%d, want 5", m.NumInteractions())
	}
	if m.NumVertices() != n.NumVertices() {
		t.Errorf("vertex ids must be preserved")
	}
	if _, ok := m.HasEdge(1, 3); ok {
		t.Errorf("edge u2->u4 (t=10) should be gone")
	}
	// Canonical order inside the window matches the original's relative
	// order.
	e, _ := m.HasEdge(1, 2)
	seq := m.Edge(e).Seq
	if len(seq) != 2 || seq[0].Time != 3 || seq[1].Time != 5 {
		t.Errorf("u2->u3 window sequence wrong: %v", seq)
	}
}

func TestNetworkRestrictWindowExtractable(t *testing.T) {
	n := figure2Network()
	m := n.RestrictWindow(2, 9)
	if _, ok := m.ExtractSubgraph(0, DefaultExtractOptions()); !ok {
		t.Errorf("restricted network lost its cycle unexpectedly")
	}
}
