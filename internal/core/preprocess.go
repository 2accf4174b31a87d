package core

import (
	"fmt"
	"math"

	"flownet/internal/tin"
)

// PreprocessStats reports what Algorithm 1 removed.
type PreprocessStats struct {
	Interactions int // interactions deleted (not counting those on deleted edges)
	Edges        int // edges deleted (including via vertex deletion)
	Vertices     int // vertices deleted
}

// Preprocess applies the paper's Algorithm 1 (DAG preprocessing) to g in
// place: considering non-source, non-sink vertices in topological order, it
// deletes from each vertex's outgoing edges every interaction that precedes
// (in canonical order) all interactions entering the vertex — such an
// interaction cannot forward any quantity. Emptied edges are deleted;
// vertices left without incoming edges are deleted together with their
// outgoing edges, and vertices left without outgoing edges are deleted
// together with their incoming edges, recursively upstream.
//
// Preprocess preserves the maximum flow of the graph and never deletes
// interactions on the source's outgoing edges. The graph must be a DAG.
func Preprocess(g *tin.Graph) (PreprocessStats, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return PreprocessStats{}, fmt.Errorf("core: preprocess: %w", err)
	}
	return preprocess(g, order), nil
}

// preprocess is Preprocess given a topological order of g's live vertices.
func preprocess(g *tin.Graph, order []tin.VertexID) PreprocessStats {
	var st PreprocessStats
	// deleteUpstream removes v (which has no live outgoing edges) and its
	// incoming edges, recursing into predecessors that lose their last
	// outgoing edge. Mirrors lines 18-22 of Algorithm 1.
	var deleteUpstream func(v tin.VertexID)
	deleteUpstream = func(v tin.VertexID) {
		if !g.VertexAlive(v) {
			return
		}
		var preds []tin.VertexID
		edges := 0
		g.InEdges(v, func(e tin.EdgeID) {
			preds = append(preds, g.Edges[e].From)
			edges++
		})
		g.DeleteVertex(v)
		st.Vertices++
		st.Edges += edges
		for _, w := range preds {
			if w != g.Source && g.VertexAlive(w) && g.OutDegree(w) == 0 {
				deleteUpstream(w)
			}
		}
	}

	for _, v := range order {
		if v == g.Source || v == g.Sink || !g.VertexAlive(v) {
			continue
		}
		if g.InDegree(v) == 0 {
			// No quantity can ever reach v: drop it and its out-edges. The
			// consequences for successors are handled when they are
			// examined (they follow v in topological order).
			st.Edges += g.OutDegree(v)
			g.DeleteVertex(v)
			st.Vertices++
			continue
		}
		// Earliest (canonical) incoming interaction.
		minOrd := int64(math.MaxInt64)
		g.InEdges(v, func(e tin.EdgeID) {
			seq := g.Edges[e].Seq
			if len(seq) > 0 && seq[0].Ord < minOrd {
				minOrd = seq[0].Ord
			}
		})
		// Drop out-interactions that precede every incoming interaction.
		var emptied []tin.EdgeID
		g.OutEdges(v, func(e tin.EdgeID) {
			seq := g.Edges[e].Seq
			keep := 0
			for keep < len(seq) && seq[keep].Ord < minOrd {
				keep++
			}
			if keep > 0 {
				st.Interactions += keep
				g.SetSeq(e, seq[keep:])
			}
			if len(g.Edges[e].Seq) == 0 {
				emptied = append(emptied, e)
			}
		})
		for _, e := range emptied {
			g.DeleteEdge(e)
			st.Edges++
		}
		if g.OutDegree(v) == 0 {
			deleteUpstream(v)
		}
	}
	return st
}

// ZeroFlow reports whether the graph trivially carries no flow from source
// to sink — e.g. after preprocessing has deleted the source, the sink, or
// all edges incident to either.
func ZeroFlow(g *tin.Graph) bool {
	return !g.VertexAlive(g.Source) || !g.VertexAlive(g.Sink) ||
		g.OutDegree(g.Source) == 0 || g.InDegree(g.Sink) == 0
}
