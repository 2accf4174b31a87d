package pattern

import (
	"maps"
	"slices"

	"flownet/internal/tin"
)

// Delta updates (footnote 2 of the paper): interaction networks grow over
// time, and rebuilding the path tables from scratch after every batch of
// new interactions is wasteful. Update refreshes a table against the new
// network state by recomputing only the row groups whose anchor can be
// affected by a changed edge; all other groups are carried over.
//
// Requirements on the new network state n: it must be append-derived from
// the network the table was built on — existing edges keep their EdgeIDs
// (tin.Network assigns edge ids by first appearance, so appending
// interactions preserves them) and existing interactions keep their
// relative canonical order (appends always do: the canonical order is
// (time, insertion index), and surviving rows are only compared within
// themselves). `changed` lists the ids, in n, of edges that are new or
// received new interactions.
//
// Affected anchors for a changed edge (u, v):
//   - 2-hop cycles a→b→a: the edge is either (a,b) or (b,a) → anchors u, v.
//   - 3-hop cycles a→b→c→a: the edge is (a,b) (anchor u), (b,c) (anchor is
//     an in-neighbor of u), or (c,a) (anchor v).
//   - 2-hop chains a→b→c: the edge is (a,b) (anchor u) or (b,c) (anchors
//     are in-neighbors of u).
func (t *Table) Update(n *tin.Network, changed []tin.EdgeID) *Table {
	affected := make(map[tin.VertexID]bool)
	for _, e := range changed {
		u, v := n.Edge(e).From, n.Edge(e).To
		affected[u] = true
		if t.Cyclic {
			affected[v] = true
		}
		if t.Hops == 3 || !t.Cyclic {
			for _, in := range n.InEdges(u) {
				affected[n.Edge(in).From] = true
			}
		}
	}
	return t.rebuilt(n, slices.Sorted(maps.Keys(affected)))
}

// Update refreshes all bundled tables (see Table.Update).
func (t Tables) Update(n *tin.Network, changed []tin.EdgeID) Tables {
	out := Tables{
		L2: t.L2.Update(n, changed),
		L3: t.L3.Update(n, changed),
	}
	if t.C2 != nil {
		out.C2 = t.C2.Update(n, changed)
	}
	return out
}
