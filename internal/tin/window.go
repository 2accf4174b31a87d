package tin

import "sort"

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
// whose sequences become empty are dropped. The result is finalized.
//
// On a finalized network every edge sequence is already Ord-sorted, so the
// canonical re-insertion order is produced by a k-way merge of the
// per-edge in-window ranges (found by binary search) — O(S log E) for S
// surviving interactions — instead of collecting and re-sorting every
// surviving row.
func (n *Network) RestrictWindow(from, to float64) *Network {
	if !n.finalized || n.needsReindex {
		return n.restrictWindowSlow(from, to)
	}
	m := NewNetwork(n.numV)
	w := &TimeWindow{From: from, To: to}
	// One cursor per edge with a non-empty in-window range; a slice-backed
	// min-heap on the cursor's current Ord yields rows in canonical order.
	type cursor struct{ e, i, end int32 }
	heap := make([]cursor, 0, len(n.edges))
	for e := range n.edges {
		lo, hi := w.bounds(n.edges[e].Seq)
		if lo < hi {
			heap = append(heap, cursor{int32(e), int32(lo), int32(hi)})
		}
	}
	ord := func(c cursor) int64 { return n.edges[c.e].Seq[c.i].Ord }
	siftDown := func(i int) {
		for {
			l, r, s := 2*i+1, 2*i+2, i
			if l < len(heap) && ord(heap[l]) < ord(heap[s]) {
				s = l
			}
			if r < len(heap) && ord(heap[r]) < ord(heap[s]) {
				s = r
			}
			if s == i {
				return
			}
			heap[i], heap[s] = heap[s], heap[i]
			i = s
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(heap) > 0 {
		c := heap[0]
		ed := &n.edges[c.e]
		ia := ed.Seq[c.i]
		m.AddInteraction(ed.From, ed.To, ia.Time, ia.Qty)
		if c.i+1 < c.end {
			heap[0] = cursor{c.e, c.i + 1, c.end}
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(0)
	}
	m.Finalize()
	return m
}

// restrictWindowSlow is the pre-merge implementation, kept for networks
// whose edge sequences are not yet canonically sorted (builder state, or
// awaiting Reindex): collect every surviving row and sort by Ord.
func (n *Network) restrictWindowSlow(from, to float64) *Network {
	m := NewNetwork(n.numV)
	var rows []ioRow
	for e := range n.edges {
		ed := &n.edges[e]
		for _, ia := range ed.Seq {
			if ia.Time >= from && ia.Time <= to {
				rows = append(rows, ioRow{ed.From, ed.To, ia})
			}
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].ia.Ord < rows[b].ia.Ord })
	for _, r := range rows {
		m.AddInteraction(r.from, r.to, r.ia.Time, r.ia.Qty)
	}
	m.Finalize()
	return m
}
