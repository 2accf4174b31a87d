package tin

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// figure2Network builds the transaction network of the paper's Figure 2(a):
// u1->u2 (2,5),(4,3),(8,1); u2->u3 (3,4),(5,2); u3->u1 (1,2),(6,5);
// u3->u4 (9,4); u4->u1 (7,6); u2->u4 (10,1).
// Vertices: u1=0, u2=1, u3=2, u4=3.
func figure2Network() *Network {
	b := NewBuilder(4)
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

func TestNetworkBasics(t *testing.T) {
	n := figure2Network()
	if n.NumVertices() != 4 {
		t.Errorf("vertices=%d, want 4", n.NumVertices())
	}
	if n.NumEdges() != 6 {
		t.Errorf("edges=%d, want 6", n.NumEdges())
	}
	if n.NumInteractions() != 10 {
		t.Errorf("interactions=%d, want 10", n.NumInteractions())
	}
	if id, ok := n.HasEdge(0, 1); !ok || len(n.Edge(id).Seq) != 3 {
		t.Errorf("edge u1->u2 wrong")
	}
	if _, ok := n.HasEdge(1, 0); ok {
		t.Errorf("edge u2->u1 should not exist")
	}
	if n.OutDegree(1) != 2 || n.InDegree(0) != 2 {
		t.Errorf("degrees wrong: out(u2)=%d in(u1)=%d", n.OutDegree(1), n.InDegree(0))
	}
	st := n.Stats()
	if st.Vertices != 4 || st.Edges != 6 || st.Interactions != 10 {
		t.Errorf("stats wrong: %+v", st)
	}
	wantAvg := (5.0 + 3 + 1 + 4 + 2 + 2 + 5 + 4 + 6 + 1) / 10
	if math.Abs(st.AvgQty-wantAvg) > 1e-12 {
		t.Errorf("avg qty %g, want %g", st.AvgQty, wantAvg)
	}
}

func TestNetworkSelfLoopIgnored(t *testing.T) {
	b := NewBuilder(2)
	if b.AddInteraction(1, 1, 1, 5) {
		t.Errorf("self loop accepted")
	}
	b.AddInteraction(0, 1, 1, 5)
	n := b.Finalize()
	if n.NumEdges() != 1 || n.NumInteractions() != 1 {
		t.Errorf("self loop recorded: E=%d IA=%d", n.NumEdges(), n.NumInteractions())
	}
}

func TestNetworkValidationPanics(t *testing.T) {
	b := NewBuilder(2)
	for _, c := range []struct {
		name     string
		from, to VertexID
		tm, q    float64
	}{
		{"out of range", 0, 5, 1, 1},
		{"negative qty", 0, 1, 1, -2},
		{"inf time", 0, 1, math.Inf(1), 1},
		{"nan qty", 0, 1, 1, math.NaN()},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			b.AddInteraction(c.from, c.to, c.tm, c.q)
		})
	}
	// A vertex count outside [0, MaxVertices] fails when the builder is
	// made, with a named message, not later in an allocation.
	for _, numV := range []int{-1, MaxVertices + 1} {
		t.Run(fmt.Sprintf("NewBuilder(%d)", numV), func(t *testing.T) {
			defer func() {
				r, _ := recover().(string)
				if !strings.HasPrefix(r, "tin: NewBuilder vertex count") {
					t.Fatalf("recovered %q, want the NewBuilder vertex-count panic", r)
				}
			}()
			NewBuilder(numV)
		})
	}
}

func TestNetworkCanonicalOrder(t *testing.T) {
	b := NewBuilder(3)
	b.AddInteraction(0, 1, 5, 1) // tie at t=5: first inserted wins
	b.AddInteraction(1, 2, 5, 2)
	b.AddInteraction(0, 1, 1, 3)
	n := b.Finalize()
	e01, _ := n.HasEdge(0, 1)
	e12, _ := n.HasEdge(1, 2)
	seq01 := n.Edge(e01).Seq
	if seq01[0].Qty != 3 || seq01[0].Ord != 0 {
		t.Errorf("first interaction should be (1,3) with Ord 0: %+v", seq01[0])
	}
	if seq01[1].Ord != 1 {
		t.Errorf("(5,1) should have Ord 1, got %d", seq01[1].Ord)
	}
	if n.Edge(e12).Seq[0].Ord != 2 {
		t.Errorf("(5,2) should have Ord 2, got %d", n.Edge(e12).Seq[0].Ord)
	}
}

// TestRankEdges compares rankEdges with a naive ranking by (Time, insertion
// index). An item is {edge, time}; its position in the case is its
// insertion index, stored as the Ord going in (times stride) and, to find
// it again, as its Qty.
func TestRankEdges(t *testing.T) {
	type item struct {
		edge int
		time float64
	}
	cases := []struct {
		name   string
		stride int64 // Ord going in = stride * insertion index: > 1 leaves holes
		items  []item
	}{
		{"already in order", 1, []item{{0, 1}, {1, 2}, {0, 3}, {2, 3}, {1, 4}}},
		{"fully reversed", 1, []item{{0, 9}, {1, 8}, {0, 7}, {2, 6}, {1, 5}, {0, 4}}},
		{"equal timestamps keep insertion order", 1, []item{{2, 5}, {0, 5}, {1, 5}, {0, 5}, {2, 5}, {1, 5}}},
		{"ties among out-of-order times", 1, []item{{0, 5}, {1, 2}, {0, 5}, {1, 2}, {2, 5}, {0, 2}}},
		{"one late item on one edge", 1, []item{{0, 1}, {1, 2}, {0, 3}, {1, 4}, {0, 2}}},
		{"holes in the incoming Ords", 3, []item{{0, 4}, {1, 1}, {0, 2}, {1, 1}}},
		{"empty", 1, nil},
	}
	for _, tc := range cases {
		edges := make([]Edge, 3)
		for i, it := range tc.items {
			edges[it.edge].Seq = append(edges[it.edge].Seq, Interaction{Time: it.time, Qty: float64(i), Ord: tc.stride * int64(i)})
		}
		order := make([]int, len(tc.items))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			ia, ib := tc.items[order[a]], tc.items[order[b]]
			if ia.time != ib.time {
				return ia.time < ib.time
			}
			return order[a] < order[b]
		})
		wantOrd := make([]int64, len(tc.items))
		wantMax := math.Inf(-1)
		for rank, i := range order {
			wantOrd[i] = int64(rank)
			wantMax = tc.items[i].time
		}

		next, maxTime := rankEdges(edges, tc.stride*int64(len(tc.items)))
		if next != int64(len(tc.items)) || maxTime != wantMax {
			t.Errorf("%s: rankEdges = (%d, %v), want (%d, %v)", tc.name, next, maxTime, len(tc.items), wantMax)
		}
		for e := range edges {
			for i, ia := range edges[e].Seq {
				if ia.Ord != wantOrd[int(ia.Qty)] {
					t.Errorf("%s: item %d ranked %d, want %d", tc.name, int(ia.Qty), ia.Ord, wantOrd[int(ia.Qty)])
				}
				if i > 0 && edges[e].Seq[i-1].Ord >= ia.Ord {
					t.Errorf("%s: edge %d run not ascending in Ord: %v", tc.name, e, edges[e].Seq)
				}
			}
		}
	}
}

// TestPlaceByOrdRejectsBrokenOrds pins the two ways an Ord can break the
// invariant placement relies on: outside the bound, and taken twice.
func TestPlaceByOrdRejectsBrokenOrds(t *testing.T) {
	place := func(ords ...int64) []int64 {
		return placeByOrd(4, func(put func(int64, int64)) {
			for _, ord := range ords {
				put(ord, ord)
			}
		})
	}
	if got := place(3, 0); !slices.Equal(got, []int64{0, 3}) {
		t.Errorf("placed = %v, want [0 3]", got)
	}
	for _, ords := range [][]int64{{4}, {-1}, {1, 1}} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.HasPrefix(fmt.Sprint(r), "tin:") {
					t.Errorf("placing Ords %v in [0,4): recovered %v, want a tin: panic", ords, r)
				}
			}()
			place(ords...)
		}()
	}
}

func TestExtractSubgraphFigure2(t *testing.T) {
	n := figure2Network()
	// Seed u1: returning paths up to 3 hops:
	//   u1->u2->u3->u1 (3 hops)
	// 2-hop cycles: none (no u2->u1).
	// Also u1->u2->u4? u4->u1 exists: u1->u2 (10,1 edge u2->u4) -> u4->u1: 3-hop.
	g, ok := n.ExtractSubgraph(0, DefaultExtractOptions())
	if !ok {
		t.Fatalf("no subgraph extracted")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !g.IsDAG() {
		t.Fatalf("extracted subgraph is not a DAG")
	}
	// Expect vertices: s, t, u2, u3, u4 = 5; edges: s->u2, u2->u3, u3->t,
	// u2->u4, u4->t = 5; interactions: 3+2+2+1+1 = 9.
	if g.NumLiveVertices() != 5 {
		t.Errorf("vertices=%d, want 5", g.NumLiveVertices())
	}
	if g.NumLiveEdges() != 5 {
		t.Errorf("edges=%d, want 5", g.NumLiveEdges())
	}
	if g.NumInteractions() != 9 {
		t.Errorf("interactions=%d, want 9", g.NumInteractions())
	}
	if g.InDegree(g.Source) != 0 || g.OutDegree(g.Sink) != 0 {
		t.Errorf("source/sink degrees wrong")
	}
}

func TestExtractSubgraphNoCycle(t *testing.T) {
	b := NewBuilder(3)
	b.AddInteraction(0, 1, 1, 1)
	b.AddInteraction(1, 2, 2, 1)
	n := b.Finalize()
	if _, ok := n.ExtractSubgraph(0, DefaultExtractOptions()); ok {
		t.Fatalf("extracted subgraph from acyclic seed")
	}
}

func TestExtractSubgraphTwoHop(t *testing.T) {
	b := NewBuilder(2)
	b.AddInteraction(0, 1, 1, 5)
	b.AddInteraction(1, 0, 2, 4)
	n := b.Finalize()
	g, ok := n.ExtractSubgraph(0, DefaultExtractOptions())
	if !ok {
		t.Fatalf("no subgraph")
	}
	// s -> u1 -> t
	if g.NumLiveVertices() != 3 || g.NumLiveEdges() != 2 {
		t.Errorf("V=%d E=%d, want 3,2", g.NumLiveVertices(), g.NumLiveEdges())
	}
}

func TestExtractSubgraphMaxInteractions(t *testing.T) {
	b := NewBuilder(2)
	for i := 0; i < 6; i++ {
		b.AddInteraction(0, 1, float64(i), 1)
		b.AddInteraction(1, 0, float64(i)+0.5, 1)
	}
	n := b.Finalize()
	if _, ok := n.ExtractSubgraph(0, ExtractOptions{MaxHops: 3, MaxInteractions: 5}); ok {
		t.Errorf("subgraph over interaction cap not discarded")
	}
	if _, ok := n.ExtractSubgraph(0, ExtractOptions{MaxHops: 3, MaxInteractions: 0}); !ok {
		t.Errorf("zero cap should mean unlimited")
	}
}

func TestExtractSubgraphSkipsInnerCycles(t *testing.T) {
	// Both v->x->y->v and v->y->x->v exist: inner edges x->y and y->x would
	// form a 2-cycle; the second path must be skipped.
	b := NewBuilder(3)           // v=0, x=1, y=2
	b.AddInteraction(0, 1, 1, 1) // v->x
	b.AddInteraction(1, 2, 2, 1) // x->y
	b.AddInteraction(2, 0, 3, 1) // y->v
	b.AddInteraction(0, 2, 4, 1) // v->y
	b.AddInteraction(2, 1, 5, 1) // y->x
	b.AddInteraction(1, 0, 6, 1) // x->v
	n := b.Finalize()
	g, ok := n.ExtractSubgraph(0, DefaultExtractOptions())
	if !ok {
		t.Fatalf("no subgraph")
	}
	if !g.IsDAG() {
		t.Fatalf("extraction produced a cyclic graph")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuildFlowGraphDistinctSourceSink(t *testing.T) {
	b := NewBuilder(3)
	b.AddInteraction(0, 1, 1, 5)
	b.AddInteraction(1, 2, 2, 4)
	n := b.Finalize()
	e01, _ := n.HasEdge(0, 1)
	e12, _ := n.HasEdge(1, 2)
	g := n.BuildFlowGraph([]EdgeID{e01, e12}, 0, 2)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumLiveVertices() != 3 || g.NumLiveEdges() != 2 || g.NumInteractions() != 2 {
		t.Errorf("V=%d E=%d IA=%d", g.NumLiveVertices(), g.NumLiveEdges(), g.NumInteractions())
	}
}

func TestBuildFlowGraphPreservesTieOrder(t *testing.T) {
	b := NewBuilder(3)
	b.AddInteraction(0, 1, 5, 1) // inserted first at t=5
	b.AddInteraction(1, 2, 5, 2) // inserted second at t=5
	b.AddInteraction(2, 0, 6, 3)
	n := b.Finalize()
	g, ok := n.ExtractSubgraph(0, DefaultExtractOptions())
	if !ok {
		t.Fatalf("no subgraph")
	}
	evs := g.Events()
	if evs[0].Qty != 1 || evs[1].Qty != 2 || evs[2].Qty != 3 {
		t.Errorf("tie order not preserved: %v", evs)
	}
}

func TestFlowSubgraphBetween(t *testing.T) {
	n := figure2Network()
	// u2 -> u4: paths u2->u4 directly and u2->u3->u4. u1 is not on any
	// u2->u4 path that avoids... u2->u3->u1->? u1's only outgoing is to
	// u2 (excluded as the source). So the subgraph is {u2,u3,u4} edges
	// u2->u3, u2->u4, u3->u4.
	g, ok := n.FlowSubgraphBetween(1, 3)
	if !ok {
		t.Fatalf("no subgraph")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumLiveVertices() != 3 || g.NumLiveEdges() != 3 {
		t.Errorf("V=%d E=%d, want 3,3:\n%s", g.NumLiveVertices(), g.NumLiveEdges(), g)
	}
	// Interactions: u2->u3 (2), u2->u4 (1), u3->u4 (1).
	if g.NumInteractions() != 4 {
		t.Errorf("IA=%d, want 4", g.NumInteractions())
	}

	// Unreachable pair: nothing points at an isolated extra vertex.
	b := NewBuilder(3)
	b.AddInteraction(0, 1, 1, 2)
	m := b.Finalize()
	if _, ok := m.FlowSubgraphBetween(0, 2); ok {
		t.Errorf("vertex 2 is unreachable, but a subgraph was returned")
	}
}

func TestFlowSubgraphBetweenDropsTerminalEdges(t *testing.T) {
	b := NewBuilder(3)
	b.AddInteraction(0, 1, 1, 5)
	b.AddInteraction(1, 0, 2, 4) // into the source: dropped
	b.AddInteraction(1, 2, 3, 3)
	b.AddInteraction(2, 1, 4, 2) // out of the sink: dropped
	n := b.Finalize()
	g, ok := n.FlowSubgraphBetween(0, 2)
	if !ok {
		t.Fatalf("no subgraph")
	}
	if g.InDegree(g.Source) != 0 || g.OutDegree(g.Sink) != 0 {
		t.Errorf("terminal edges not dropped")
	}
	if g.NumLiveEdges() != 2 {
		t.Errorf("E=%d, want 2", g.NumLiveEdges())
	}
}

func TestFlowSubgraphBetweenPanics(t *testing.T) {
	n := figure2Network()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for source == sink")
		}
	}()
	n.FlowSubgraphBetween(1, 1)
}

func TestNetworkIORoundTrip(t *testing.T) {
	n := figure2Network()
	var buf bytes.Buffer
	if err := WriteNetwork(&buf, n); err != nil {
		t.Fatalf("WriteNetwork: %v", err)
	}
	m, err := ReadNetwork(&buf)
	if err != nil {
		t.Fatalf("ReadNetwork: %v", err)
	}
	if m.NumVertices() != n.NumVertices() || m.NumEdges() != n.NumEdges() || m.NumInteractions() != n.NumInteractions() {
		t.Fatalf("round trip mismatch: %+v vs %+v", m.Stats(), n.Stats())
	}
	// Canonical order must be preserved.
	for e := 0; e < n.NumEdges(); e++ {
		ne := n.Edge(EdgeID(e))
		me, ok := m.HasEdge(ne.From, ne.To)
		if !ok {
			t.Fatalf("edge %d->%d missing after round trip", ne.From, ne.To)
		}
		for i, ia := range ne.Seq {
			mia := m.Edge(me).Seq[i]
			if mia.Time != ia.Time || mia.Qty != ia.Qty || mia.Ord != ia.Ord {
				t.Errorf("edge %d->%d interaction %d: %+v vs %+v", ne.From, ne.To, i, mia, ia)
			}
		}
	}
}

func TestNetworkFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	n := figure2Network()
	for _, name := range []string{"net.txt", "net.txt.gz"} {
		path := filepath.Join(dir, name)
		if err := SaveNetwork(path, n); err != nil {
			t.Fatalf("SaveNetwork(%s): %v", name, err)
		}
		m, err := LoadNetwork(path)
		if err != nil {
			t.Fatalf("LoadNetwork(%s): %v", name, err)
		}
		if m.NumInteractions() != n.NumInteractions() {
			t.Errorf("%s: IA=%d, want %d", name, m.NumInteractions(), n.NumInteractions())
		}
	}
}

func TestReadNetworkErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"short line", "1 2 3\n"},
		{"bad from", "x 2 3 4\n"},
		{"bad to", "1 x 3 4\n"},
		{"bad time", "1 2 x 4\n"},
		{"bad qty", "1 2 3 x\n"},
		{"negative id", "-1 2 3 4\n"},
		{"negative qty", "1 2 3 -4\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadNetwork(bytes.NewBufferString(c.data)); err == nil {
				t.Errorf("expected error for %q", c.data)
			}
		})
	}
}

func TestReadNetworkHeaderAndComments(t *testing.T) {
	data := "# vertices 10\n# a comment\n\n0 1 1.5 2.5\n"
	n, err := ReadNetwork(bytes.NewBufferString(data))
	if err != nil {
		t.Fatalf("ReadNetwork: %v", err)
	}
	if n.NumVertices() != 10 {
		t.Errorf("vertices=%d, want 10 (from header)", n.NumVertices())
	}
	if n.NumInteractions() != 1 {
		t.Errorf("interactions=%d, want 1", n.NumInteractions())
	}
}

func TestLoadNetworkMissingFile(t *testing.T) {
	if _, err := LoadNetwork("/nonexistent/net.txt"); err == nil {
		t.Fatalf("expected error for missing file")
	}
}

// TestPairTableMatchesMap holds the builder's pair table to a Go map over
// random keys that grow it from empty many times, with the smallest key a
// network can hold (0->1) and keys of the largest source vertex mixed in:
// every key gets the id it was first given, every id is the number of
// distinct keys before it, every count is the number of adds of its key
// before it, and the table is never half full.
func TestPairTableMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	keys := []int64{pairKey(0, 1), pairKey(MaxVertices-1, 0), pairKey(MaxVertices-1, MaxVertices-2)}
	for range 20_000 {
		from, to := VertexID(r.Intn(MaxVertices)), VertexID(r.Intn(MaxVertices))
		if from != to {
			keys = append(keys, pairKey(from, to), pairKey(MaxVertices-1, to))
		}
	}
	type edge struct {
		id    EdgeID
		count int32
	}
	var p pairTable
	want := map[int64]*edge{}
	for range 200_000 {
		key := keys[r.Intn(len(keys))]
		fresh := EdgeID(len(want))
		id, at, isNew := p.add(key, fresh)
		w, ok := want[key]
		if !ok {
			w = &edge{id: fresh}
			want[key] = w
		}
		if isNew == ok || id != w.id || at != w.count {
			t.Fatalf("add(%#x, %d) = %d, %d, %v; want %d, %d, %v", key, fresh, id, at, isNew, w.id, w.count, !ok)
		}
		w.count++
		if 2*p.n > len(p.slots) || p.n != len(want) {
			t.Fatalf("%d keys held (want %d) in %d slots", p.n, len(want), len(p.slots))
		}
	}
	if len(want) < 30_000 || len(p.slots) < 1<<16 {
		t.Fatalf("only %d keys in %d slots: too few growths", len(want), len(p.slots))
	}
	counts := p.counts(len(want))
	for key, w := range want {
		if counts[w.id] != int(w.count) {
			t.Fatalf("edge %d (key %#x) counted %d, want %d", w.id, key, counts[w.id], w.count)
		}
	}
}
