package tin

// The paper's conclusion notes that all techniques apply unchanged to the
// time-restricted version of the problem — flow carried only by
// interactions inside a window [from, to] — by simply disregarding
// interactions outside the window. This file implements that restriction
// for both representations.
//
// The serving path does not go through Graph.RestrictWindow: windowed
// queries apply the bounds during extraction (Query.Window), which never
// materializes out-of-window interactions. RestrictWindow is the public
// library API and the oracle the differential tests compare that fast path
// against.

// RestrictWindow returns a copy of the graph containing only interactions
// with Time in [from, to] (inclusive). Edges left without interactions are
// deleted; vertices are never deleted (flow algorithms and preprocessing
// handle isolated vertices). The canonical order of surviving interactions
// is preserved, so results on the restricted graph are consistent with the
// unrestricted semantics.
func (g *Graph) RestrictWindow(from, to float64) *Graph {
	c := g.Clone()
	for id := range c.Edges {
		if !c.edgeAlive[id] {
			continue
		}
		seq := c.Edges[id].Seq
		kept := seq[:0]
		for _, ia := range seq {
			if ia.Time >= from && ia.Time <= to {
				kept = append(kept, ia)
			}
		}
		c.numIA -= len(seq) - len(kept)
		c.Edges[id].Seq = kept
		if len(kept) == 0 {
			c.DeleteEdge(EdgeID(id))
		}
	}
	return c
}

// RestrictWindow returns a new network containing only the interactions
// with Time in [from, to] (inclusive). Vertex ids are preserved; edges
// whose sequences become empty are dropped. Surviving rows are re-inserted
// in the original's canonical order, so theirs is the same (and the
// builder's Finalize sorts nothing).
func (n *Network) RestrictWindow(from, to float64) *Network {
	b := NewBuilder(n.numV)
	for _, ev := range n.events() {
		if ev.Time >= from && ev.Time <= to {
			b.AddInteraction(ev.From, ev.To, ev.Time, ev.Qty)
		}
	}
	return b.Finalize()
}
