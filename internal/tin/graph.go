package tin

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Graph is a flow-computation instance: a directed graph over dense vertex
// ids [0, NumV) with a designated Source and Sink, where each edge carries a
// sequence of interactions. It is the input type of every algorithm in
// internal/core.
//
// Graphs are built with AddEdge/AddInteractions and must be finalized with
// Finalize before use; Finalize assigns the canonical interaction order.
// The preprocessing and simplification algorithms of the paper mutate a
// Graph in place (deleting interactions, edges and vertices); use Clone
// first if the original must be preserved.
type Graph struct {
	NumV   int
	Source VertexID
	Sink   VertexID

	Edges []Edge // indexed by EdgeID; dead edges have edgeAlive[i] == false

	out [][]EdgeID // outgoing edge ids per vertex (may contain dead edges)
	in  [][]EdgeID // incoming edge ids per vertex (may contain dead edges)

	edgeAlive []bool
	vertAlive []bool
	outDeg    []int // live out-degree per vertex
	inDeg     []int // live in-degree per vertex

	liveEdges int
	liveVerts int
	numIA     int // live interaction count

	// byOrd is the canonical order as an index: byOrd[o] is the edge that
	// was handed Ord o, -1 where no interaction was; len(byOrd) is
	// OrdBound. Deletions leave their entries behind as holes, which the
	// walk (InOrder) tells apart with a per-edge cursor.
	byOrd     []EdgeID
	nextOrd   int64
	finalized bool
}

// NewGraph creates an empty graph with numV vertices, all alive, and the
// given source and sink vertices. Panics if source or sink are out of range
// or equal: a flow instance with source == sink must be built by splitting
// the vertex (see Network.ExtractSubgraph).
func NewGraph(numV int, source, sink VertexID) *Graph {
	if numV < 2 {
		panic(fmt.Sprintf("tin: NewGraph needs at least 2 vertices, got %d", numV))
	}
	if source < 0 || int(source) >= numV || sink < 0 || int(sink) >= numV {
		panic(fmt.Sprintf("tin: source %d or sink %d out of range [0,%d)", source, sink, numV))
	}
	if source == sink {
		panic("tin: source and sink must be distinct vertices")
	}
	g := &Graph{
		NumV:      numV,
		Source:    source,
		Sink:      sink,
		out:       make([][]EdgeID, numV),
		in:        make([][]EdgeID, numV),
		vertAlive: make([]bool, numV),
		outDeg:    make([]int, numV),
		inDeg:     make([]int, numV),
		liveVerts: numV,
	}
	for i := range g.vertAlive {
		g.vertAlive[i] = true
	}
	return g
}

// AddEdge inserts a directed edge from -> to with an empty interaction
// sequence and returns its id. Parallel edges are allowed (they can also be
// merged later by simplification). Self loops are rejected.
func (g *Graph) AddEdge(from, to VertexID) EdgeID {
	if g.finalized {
		panic("tin: AddEdge after Finalize")
	}
	return g.addEdge(Edge{From: from, To: to})
}

// AddReducedEdge inserts an edge carrying an interaction sequence that is
// already in canonical order (see admitSeq), with Ords no other interaction
// of this graph has. Unlike AddEdge it is legal after Finalize; it exists
// for the graph-simplification algorithm (core.Simplify), which replaces
// chains with single edges whose interactions inherit the Ord of the
// arrivals they represent.
func (g *Graph) AddReducedEdge(from, to VertexID, seq []Interaction) EdgeID {
	g.admitSeq(EdgeID(len(g.Edges)), seq)
	return g.addEdge(Edge{From: from, To: to, Seq: seq})
}

func (g *Graph) addEdge(e Edge) EdgeID {
	if e.From == e.To {
		panic(fmt.Sprintf("tin: self loop on vertex %d", e.From))
	}
	if e.From < 0 || int(e.From) >= g.NumV || e.To < 0 || int(e.To) >= g.NumV {
		panic(fmt.Sprintf("tin: edge (%d,%d) out of range [0,%d)", e.From, e.To, g.NumV))
	}
	id := EdgeID(len(g.Edges))
	g.Edges = append(g.Edges, e)
	g.edgeAlive = append(g.edgeAlive, true)
	g.out[e.From] = append(g.out[e.From], id)
	g.in[e.To] = append(g.in[e.To], id)
	g.outDeg[e.From]++
	g.inDeg[e.To]++
	g.liveEdges++
	g.numIA += len(e.Seq)
	return id
}

// AddInteraction appends an interaction (t, q) to edge e. Quantities must be
// non-negative; zero-quantity interactions are legal but contribute nothing.
func (g *Graph) AddInteraction(e EdgeID, t, q float64) {
	if g.finalized {
		panic("tin: AddInteraction after Finalize")
	}
	if q < 0 || math.IsNaN(q) || math.IsNaN(t) {
		panic(fmt.Sprintf("tin: invalid interaction (%v,%v)", t, q))
	}
	g.Edges[e].Seq = append(g.Edges[e].Seq, Interaction{Time: t, Qty: q, Ord: g.nextOrd})
	g.byOrd = append(g.byOrd, e)
	g.nextOrd++
	g.numIA++
}

// AddSeq appends a whole interaction sequence, in order, to edge e.
func (g *Graph) AddSeq(e EdgeID, seq ...[2]float64) {
	for _, tq := range seq {
		g.AddInteraction(e, tq[0], tq[1])
	}
}

// Finalize assigns the canonical total order (Time asc, insertion order asc)
// to every interaction and sorts each edge sequence by it. It must be called
// exactly once, after which the graph structure is append-frozen (but may
// still be mutated by deletions).
func (g *Graph) Finalize() {
	if g.finalized {
		panic("tin: Finalize called twice")
	}
	g.finalized = true
	g.nextOrd, _ = rankEdges(g.Edges, g.nextOrd)
	// The ranks are dense: every entry of the index is handed out anew.
	g.byOrd = growBuf(g.byOrd, int(g.nextOrd))
	for id := range g.Edges {
		for _, ia := range g.Edges[id].Seq {
			g.byOrd[ia.Ord] = EdgeID(id)
		}
	}
}

// OrdBound returns the exclusive upper bound of the graph's Ords. Every
// interaction's Ord is unique in the graph and inside [0, OrdBound):
// AddInteraction, Finalize and extraction hand out dense ranks, deletions
// only leave holes, AddReducedEdge and SetSeq raise the bound past what
// they admit. Consumers index by Ord and never compare Ords for an order.
func (g *Graph) OrdBound() int64 { return g.nextOrd }

// admitSeq panics unless seq is in canonical order — Ords non-negative and
// strictly ascending — then raises OrdBound past its largest Ord and
// records edge e as the holder of each of its Ords.
func (g *Graph) admitSeq(e EdgeID, seq []Interaction) {
	prev := int64(-1)
	for _, ia := range seq {
		if ia.Ord <= prev {
			panic(fmt.Sprintf("tin: sequence not strictly ascending in Ord: %d after %d", ia.Ord, prev))
		}
		prev = ia.Ord
	}
	for g.nextOrd <= prev {
		g.byOrd = append(g.byOrd, -1)
		g.nextOrd++
	}
	for _, ia := range seq {
		g.byOrd[ia.Ord] = e
	}
}

// Clone returns a deep copy of the graph, preserving liveness state and
// canonical order.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		NumV:      g.NumV,
		Source:    g.Source,
		Sink:      g.Sink,
		Edges:     make([]Edge, len(g.Edges)),
		out:       make([][]EdgeID, g.NumV),
		in:        make([][]EdgeID, g.NumV),
		edgeAlive: append([]bool(nil), g.edgeAlive...),
		vertAlive: append([]bool(nil), g.vertAlive...),
		outDeg:    append([]int(nil), g.outDeg...),
		inDeg:     append([]int(nil), g.inDeg...),
		liveEdges: g.liveEdges,
		liveVerts: g.liveVerts,
		numIA:     g.numIA,
		byOrd:     slices.Clone(g.byOrd),
		nextOrd:   g.nextOrd,
		finalized: g.finalized,
	}
	for i, e := range g.Edges {
		c.Edges[i] = Edge{From: e.From, To: e.To, Seq: append([]Interaction(nil), e.Seq...)}
	}
	for v := range g.out {
		c.out[v] = append([]EdgeID(nil), g.out[v]...)
		c.in[v] = append([]EdgeID(nil), g.in[v]...)
	}
	return c
}

// EdgeAlive reports whether edge e has not been deleted.
func (g *Graph) EdgeAlive(e EdgeID) bool { return g.edgeAlive[e] }

// VertexAlive reports whether vertex v has not been deleted.
func (g *Graph) VertexAlive(v VertexID) bool { return g.vertAlive[v] }

// OutDegree returns the number of live outgoing edges of v.
func (g *Graph) OutDegree(v VertexID) int { return g.outDeg[v] }

// InDegree returns the number of live incoming edges of v.
func (g *Graph) InDegree(v VertexID) int { return g.inDeg[v] }

// NumLiveEdges returns the number of edges that have not been deleted.
func (g *Graph) NumLiveEdges() int { return g.liveEdges }

// NumLiveVertices returns the number of vertices that have not been deleted.
func (g *Graph) NumLiveVertices() int { return g.liveVerts }

// NumInteractions returns the number of live interactions in the graph.
func (g *Graph) NumInteractions() int { return g.numIA }

// OutEdges calls fn for every live outgoing edge of v.
func (g *Graph) OutEdges(v VertexID, fn func(e EdgeID)) {
	for _, e := range g.out[v] {
		if g.edgeAlive[e] {
			fn(e)
		}
	}
}

// InEdges calls fn for every live incoming edge of v.
func (g *Graph) InEdges(v VertexID, fn func(e EdgeID)) {
	for _, e := range g.in[v] {
		if g.edgeAlive[e] {
			fn(e)
		}
	}
}

// FirstOutEdge returns the id of one live outgoing edge of v; it panics if
// v has none. Useful for chain traversal where OutDegree(v) == 1.
func (g *Graph) FirstOutEdge(v VertexID) EdgeID {
	for _, e := range g.out[v] {
		if g.edgeAlive[e] {
			return e
		}
	}
	panic(fmt.Sprintf("tin: vertex %d has no live outgoing edge", v))
}

// DeleteInteraction removes the interaction at position i of edge e's
// sequence. Positions refer to the current (live) sequence.
func (g *Graph) DeleteInteraction(e EdgeID, i int) {
	seq := g.Edges[e].Seq
	g.Edges[e].Seq = append(seq[:i], seq[i+1:]...)
	g.numIA--
}

// SetSeq replaces edge e's interaction sequence wholesale (used by
// simplification, which rebuilds sequences from greedy arrivals). The new
// sequence must be in canonical order (see admitSeq); numIA is adjusted.
func (g *Graph) SetSeq(e EdgeID, seq []Interaction) {
	g.admitSeq(e, seq)
	g.numIA += len(seq) - len(g.Edges[e].Seq)
	g.Edges[e].Seq = seq
}

// DeleteEdge marks edge e as deleted and updates degree counters. It does
// not cascade; callers (Algorithm 1) handle vertex deletion themselves.
func (g *Graph) DeleteEdge(e EdgeID) {
	if !g.edgeAlive[e] {
		return
	}
	g.edgeAlive[e] = false
	g.numIA -= len(g.Edges[e].Seq)
	g.Edges[e].Seq = nil
	g.outDeg[g.Edges[e].From]--
	g.inDeg[g.Edges[e].To]--
	g.liveEdges--
}

// DropEmptyEdges deletes every live edge whose interaction sequence is
// empty. It is the companion of windowed extraction (Query.Window), whose
// builder keeps emptied edges alive for the source/sink degree checks;
// dropping them afterwards yields exactly the graph RestrictWindow's edge
// deletions would have produced. Vertices are never deleted.
func (g *Graph) DropEmptyEdges() {
	for id := range g.Edges {
		if g.edgeAlive[id] && len(g.Edges[id].Seq) == 0 {
			g.DeleteEdge(EdgeID(id))
		}
	}
}

// DeleteVertex marks vertex v as deleted together with all its live
// incident edges. It does not cascade to neighbouring vertices.
func (g *Graph) DeleteVertex(v VertexID) {
	if !g.vertAlive[v] {
		return
	}
	g.vertAlive[v] = false
	g.liveVerts--
	for _, e := range g.out[v] {
		g.DeleteEdge(e)
	}
	for _, e := range g.in[v] {
		g.DeleteEdge(e)
	}
}

// Event is an interaction together with its edge endpoints, as produced by
// Events.
type Event struct {
	Interaction
	From, To VertexID
	Edge     EdgeID
}

// InOrder yields every live interaction of the graph (a deleted edge keeps
// none) in canonical order. It walks the Ord index with one cursor per
// edge: the entry at Ord o counts only if it is the next interaction of
// the edge it names, so the holes deletions leave are skipped and nothing
// is placed or sorted — O(OrdBound + edges). A complete walk panics if an
// interaction was left behind, i.e. its Ord is not the one the index
// records for its edge (taken twice or outside [0, OrdBound)).
func (g *Graph) InOrder(yield func(Event) bool) {
	cur := make([]int32, len(g.Edges))
	for o, e := range g.byOrd {
		if e < 0 {
			continue
		}
		ed := &g.Edges[e]
		i := cur[e]
		if int(i) >= len(ed.Seq) || ed.Seq[i].Ord != int64(o) {
			continue
		}
		cur[e] = i + 1
		if !yield(Event{Interaction: ed.Seq[i], From: ed.From, To: ed.To, Edge: e}) {
			return
		}
	}
	for id := range g.Edges {
		if seq := g.Edges[id].Seq; int(cur[id]) < len(seq) {
			panic(fmt.Sprintf("tin: Ord %d of edge %d is taken twice or outside [0,%d)", seq[cur[id]].Ord, id, g.nextOrd))
		}
	}
}

// Events returns InOrder's interactions in a freshly allocated slice.
func (g *Graph) Events() []Event {
	evs := make([]Event, 0, g.numIA)
	for ev := range g.InOrder {
		evs = append(evs, ev)
	}
	return evs
}

// TopoOrder returns the live vertices in a topological order of the live
// edges, or an error if the live subgraph contains a directed cycle.
// Ties are broken by vertex id, making the order deterministic (Kahn's
// algorithm with an id-ordered frontier).
func (g *Graph) TopoOrder() ([]VertexID, error) {
	indeg := make([]int, g.NumV)
	for v := 0; v < g.NumV; v++ {
		if g.vertAlive[v] {
			indeg[v] = g.inDeg[v]
		}
	}
	// order[lo:] is the frontier: sorted, then scanned, the vertices it
	// frees appended behind it as the next one.
	order := make([]VertexID, 0, g.liveVerts)
	for v := 0; v < g.NumV; v++ {
		if g.vertAlive[v] && indeg[v] == 0 {
			order = append(order, VertexID(v))
		}
	}
	for lo := 0; lo < len(order); {
		frontier := order[lo:]
		slices.Sort(frontier)
		lo = len(order)
		for _, v := range frontier {
			g.OutEdges(v, func(e EdgeID) {
				u := g.Edges[e].To
				indeg[u]--
				if indeg[u] == 0 {
					order = append(order, u)
				}
			})
		}
	}
	if len(order) != g.liveVerts {
		return nil, errors.New("tin: graph contains a directed cycle")
	}
	return order, nil
}

// IsDAG reports whether the live subgraph is acyclic.
func (g *Graph) IsDAG() bool {
	_, err := g.TopoOrder()
	return err == nil
}

// Validate checks the structural preconditions of the paper's flow
// computation problem: the graph is finalized, the source is alive with no
// live incoming edges, the sink is alive with no live outgoing edges, and
// every live vertex is reachable on live edges (connectivity in the
// undirected sense, as the paper requires connected inputs).
func (g *Graph) Validate() error {
	if !g.finalized {
		return errors.New("tin: graph not finalized")
	}
	if !g.vertAlive[g.Source] {
		return errors.New("tin: source vertex deleted")
	}
	if !g.vertAlive[g.Sink] {
		return errors.New("tin: sink vertex deleted")
	}
	if g.inDeg[g.Source] != 0 {
		return fmt.Errorf("tin: source %d has %d incoming edges", g.Source, g.inDeg[g.Source])
	}
	if g.outDeg[g.Sink] != 0 {
		return fmt.Errorf("tin: sink %d has %d outgoing edges", g.Sink, g.outDeg[g.Sink])
	}
	if !g.connected() {
		return errors.New("tin: graph is not connected")
	}
	return nil
}

func (g *Graph) connected() bool {
	seen := make([]bool, g.NumV)
	stack := []VertexID{g.Source}
	seen[g.Source] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visit := func(e EdgeID) {
			var u VertexID
			if g.Edges[e].From == v {
				u = g.Edges[e].To
			} else {
				u = g.Edges[e].From
			}
			if !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
		g.OutEdges(v, visit)
		g.InEdges(v, visit)
	}
	return count == g.liveVerts
}

// String renders the graph edge list in the paper's notation, e.g.
// "0->1: (1,5),(4,3)". Dead edges and vertices are omitted.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Graph{V=%d, E=%d, IA=%d, s=%d, t=%d}\n",
		g.liveVerts, g.liveEdges, g.numIA, g.Source, g.Sink)
	for id := range g.Edges {
		if !g.edgeAlive[id] {
			continue
		}
		e := &g.Edges[id]
		fmt.Fprintf(&b, "  %d->%d:", e.From, e.To)
		for _, ia := range e.Seq {
			fmt.Fprintf(&b, " %s", ia.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FindEdge returns the id of a live edge from -> to, or -1 if none exists.
// If several parallel live edges exist, the one with the smallest id is
// returned.
func (g *Graph) FindEdge(from, to VertexID) EdgeID {
	for _, e := range g.out[from] {
		if g.edgeAlive[e] && g.Edges[e].To == to {
			return e
		}
	}
	return -1
}
