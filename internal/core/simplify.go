package core

import "flownet/internal/tin"

// SimplifyStats reports what Algorithm 2 did.
type SimplifyStats struct {
	ChainsReduced int // chains replaced by single edges
	EdgesMerged   int // parallel (source, v) edges merged away
	Interactions  int // net interactions removed
	Vertices      int // inner chain vertices removed
}

// Simplify applies the paper's Algorithm 2 (graph simplification) to g in
// place: every chain s→v1→…→vk that originates at the source (each inner
// vertex with live in- and out-degree exactly one) is replaced by a single
// edge (s, vk) whose interactions are the greedy arrivals at vk along the
// chain (Lemma 3: reserving quantity at the source or at inner chain
// vertices cannot increase the maximum flow, so the arrival sequence is an
// exact summary). If an edge (s, vk) already exists, the two interaction
// sequences are merged (Figure 7(c)); merging may create a new chain, so
// the procedure iterates until no chain remains.
//
// Simplify preserves the maximum flow of the graph. It is typically run
// after Preprocess, as in the PreSim pipeline.
func Simplify(g *tin.Graph) SimplifyStats {
	var st SimplifyStats
	for {
		chain := findSourceChain(g)
		if chain == nil {
			break
		}
		st.ChainsReduced++
		before := g.NumInteractions()

		seqs := make([][]tin.Interaction, len(chain))
		for i, e := range chain {
			seqs[i] = g.Edges[e].Seq
		}
		var arrivals []Arrival
		PathArrivals(seqs, &arrivals)
		last := g.Edges[chain[len(chain)-1]].To // vk

		// Remove the chain's edges and inner vertices.
		for i, e := range chain {
			if i > 0 {
				v := g.Edges[e].From
				g.DeleteVertex(v) // also deletes the chain edges incident to v
				st.Vertices++
			}
		}
		// The first edge (s, v1) dies with v1's deletion unless the chain
		// has a single inner vertex; delete defensively (idempotent).
		g.DeleteEdge(chain[0])

		// Attach the arrival sequence as edge (s, last), merging with an
		// existing parallel edge if there is one. An empty arrival sequence
		// still yields an edge, keeping the structure explicit; downstream
		// preprocessing treats it as carrying nothing.
		if ex := g.FindEdge(g.Source, last); ex >= 0 {
			g.SetSeq(ex, mergeByOrd(g.Edges[ex].Seq, arrivals))
			st.EdgesMerged++
		} else {
			g.AddReducedEdge(g.Source, last, arrivals)
		}
		st.Interactions += before - g.NumInteractions()
	}
	return st
}

// findSourceChain returns the edge ids of a maximal chain s→v1→…→vk with
// k ≥ 2 edges whose inner vertices all have live in-degree and out-degree
// exactly one, or nil if no such chain exists. Deterministic: the source's
// live out-edges are scanned in id order.
func findSourceChain(g *tin.Graph) []tin.EdgeID {
	var chain []tin.EdgeID
	g.OutEdges(g.Source, func(first tin.EdgeID) {
		if chain != nil {
			return
		}
		v := g.Edges[first].To
		if v == g.Sink || g.InDegree(v) != 1 || g.OutDegree(v) != 1 {
			return
		}
		c := []tin.EdgeID{first}
		for v != g.Sink && v != g.Source && g.InDegree(v) == 1 && g.OutDegree(v) == 1 {
			e := g.FirstOutEdge(v)
			c = append(c, e)
			v = g.Edges[e].To
			if len(c) > g.NumLiveEdges() {
				return // cycle guard; cannot happen on validated DAGs
			}
		}
		if v == g.Source {
			return // cycle back to source; not a reducible chain
		}
		chain = c
	})
	return chain
}

// mergeByOrd merges two Ord-sorted interaction sequences into one.
func mergeByOrd(a, b []tin.Interaction) []tin.Interaction {
	out := make([]tin.Interaction, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Ord <= b[j].Ord {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
