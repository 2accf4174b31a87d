package tin

import (
	"sort"
)

// This file preserves the pre-optimization extraction pipeline — map-based
// visited sets, the O(E) induced-edge scan, the lazily created flow graph —
// verbatim as a test oracle. The serving path (extract.go) replaced all of
// it with frontier-driven collection over dense epoch-stamped marks and a
// direct single-pass graph build; FuzzExtractEquivalence and the
// equivalence tests assert that the fast path is byte-identical to these
// reference implementations, with and without time windows, under random
// append interleavings.

// refExtractSubgraphFootprint is the original ExtractSubgraphFootprint.
func refExtractSubgraphFootprint(n *Network, seed VertexID, opts ExtractOptions) (*Graph, bool, []VertexID) {
	var paths [][]EdgeID
	iterated := map[VertexID]bool{seed: true}
	var dfs func(v VertexID, depth int, edges []EdgeID, onPath map[VertexID]bool)
	dfs = func(v VertexID, depth int, edges []EdgeID, onPath map[VertexID]bool) {
		for _, e := range n.OutEdges(v) {
			u := n.Edge(e).To
			if u == seed {
				if depth >= 1 {
					p := make([]EdgeID, len(edges)+1)
					copy(p, edges)
					p[len(edges)] = e
					paths = append(paths, p)
				}
				continue
			}
			if depth+1 >= opts.MaxHops || onPath[u] {
				continue
			}
			iterated[u] = true
			onPath[u] = true
			dfs(u, depth+1, append(edges, e), onPath)
			delete(onPath, u)
		}
	}
	dfs(seed, 0, nil, map[VertexID]bool{seed: true})
	foot := refSortedVertexSet(iterated)
	if len(paths) == 0 {
		return nil, false, foot
	}

	inner := newRefTinyDigraph()
	edgeSet := make(map[EdgeID]bool)
	for _, p := range paths {
		ok := true
		for i := 1; i < len(p)-1; i++ {
			e := n.Edge(p[i])
			if inner.createsCycle(e.From, e.To) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for i := 1; i < len(p)-1; i++ {
			e := n.Edge(p[i])
			inner.add(e.From, e.To)
		}
		for _, id := range p {
			edgeSet[id] = true
		}
	}
	if len(edgeSet) == 0 {
		return nil, false, foot
	}

	ids := make([]EdgeID, 0, len(edgeSet))
	total := 0
	for id := range edgeSet {
		ids = append(ids, id)
		total += len(n.Edge(id).Seq)
	}
	if opts.MaxInteractions > 0 && total > opts.MaxInteractions {
		return nil, false, foot
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return refBuildFlowGraph(n, ids, seed, seed), true, foot
}

func refSortedVertexSet(set map[VertexID]bool) []VertexID {
	vs := make([]VertexID, 0, len(set))
	for v := range set {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(a, b int) bool { return vs[a] < vs[b] })
	return vs
}

// refEvents is Graph.Events by comparison sort: the live interactions,
// gathered edge by edge and sorted by Ord.
func refEvents(g *Graph) []Event {
	var evs []Event
	for id := range g.Edges {
		if !g.EdgeAlive(EdgeID(id)) {
			continue
		}
		e := &g.Edges[id]
		for _, ia := range e.Seq {
			evs = append(evs, Event{Interaction: ia, From: e.From, To: e.To, Edge: EdgeID(id)})
		}
	}
	sort.Slice(evs, func(a, b int) bool { return evs[a].Ord < evs[b].Ord })
	return evs
}

// refBuildFlowGraph is the original map-based BuildFlowGraph.
func refBuildFlowGraph(n *Network, edgeIDs []EdgeID, source, sink VertexID) *Graph {
	local := make(map[VertexID]VertexID)
	nv := VertexID(2)
	mapInner := func(v VertexID) VertexID {
		if id, ok := local[v]; ok {
			return id
		}
		id := nv
		local[v] = id
		nv++
		return id
	}
	type iaRefT struct {
		ia       Interaction
		from, to VertexID
		edge     EdgeID
	}
	var refs []iaRefT
	for _, id := range edgeIDs {
		e := n.Edge(id)
		var lf, lt VertexID
		if e.From == source {
			lf = 0
		} else if e.From == sink && source != sink {
			lf = 1
		} else {
			lf = mapInner(e.From)
		}
		if e.To == sink {
			lt = 1
		} else if e.To == source && source != sink {
			lt = 0
		} else {
			lt = mapInner(e.To)
		}
		for _, ia := range e.Seq {
			refs = append(refs, iaRefT{ia: ia, from: lf, to: lt, edge: id})
		}
	}
	sort.Slice(refs, func(a, b int) bool { return refs[a].ia.Ord < refs[b].ia.Ord })

	g := NewGraph(int(nv), 0, 1)
	edgeOf := make(map[EdgeID]EdgeID, len(edgeIDs))
	for _, r := range refs {
		ge, ok := edgeOf[r.edge]
		if !ok {
			ge = g.AddEdge(r.from, r.to)
			edgeOf[r.edge] = ge
		}
		g.AddInteraction(ge, r.ia.Time, r.ia.Qty)
	}
	g.Finalize()
	return g
}

// refFlowSubgraphBetweenFootprint is the original scan-based
// FlowSubgraphBetweenFootprint: reachability via maps, edge collection via
// a full scan of the edge table.
func refFlowSubgraphBetweenFootprint(n *Network, source, sink VertexID) (*Graph, bool, []VertexID) {
	fwd := refReach(n, source, false, source, sink)
	bwd := refReach(n, sink, true, source, sink)
	union := make(map[VertexID]bool, len(fwd)+len(bwd))
	for v := range fwd {
		union[v] = true
	}
	for v := range bwd {
		union[v] = true
	}
	foot := refSortedVertexSet(union)
	var ids []EdgeID
	for e := range n.NumEdges() {
		ed := n.Edge(EdgeID(e))
		if ed.From == sink || ed.To == source {
			continue
		}
		if fwd[ed.From] && bwd[ed.From] && fwd[ed.To] && bwd[ed.To] {
			ids = append(ids, EdgeID(e))
		}
	}
	if len(ids) == 0 {
		return nil, false, foot
	}
	g := refBuildFlowGraph(n, ids, source, sink)
	if g.InDegree(g.Source) != 0 || g.OutDegree(g.Sink) != 0 || g.OutDegree(g.Source) == 0 {
		return nil, false, foot
	}
	return g, true, foot
}

func refReach(n *Network, v VertexID, backward bool, source, sink VertexID) map[VertexID]bool {
	seen := map[VertexID]bool{v: true}
	stack := []VertexID{v}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var edges []EdgeID
		if backward {
			edges = n.InEdges(x)
		} else {
			edges = n.OutEdges(x)
		}
		for _, e := range edges {
			ed := n.Edge(e)
			if ed.To == source || ed.From == sink {
				continue
			}
			u := ed.To
			if backward {
				u = ed.From
			}
			if !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return seen
}

// refTinyDigraph is the original map-of-maps cycle-check digraph.
type refTinyDigraph struct {
	succ map[VertexID]map[VertexID]bool
}

func newRefTinyDigraph() *refTinyDigraph {
	return &refTinyDigraph{succ: make(map[VertexID]map[VertexID]bool)}
}

func (d *refTinyDigraph) add(a, b VertexID) {
	s := d.succ[a]
	if s == nil {
		s = make(map[VertexID]bool)
		d.succ[a] = s
	}
	s[b] = true
}

func (d *refTinyDigraph) createsCycle(a, b VertexID) bool {
	if a == b {
		return true
	}
	seen := map[VertexID]bool{b: true}
	stack := []VertexID{b}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == a {
			return true
		}
		for u := range d.succ[v] {
			if !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return false
}
