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
// affected by a change at a touched vertex; all other groups are carried
// over.
//
// Requirements on the new network state n: it must be append-derived from
// the network the table was built on — existing edges keep their EdgeIDs
// (tin.Network assigns edge ids by first appearance, so appending
// interactions preserves them) and existing interactions keep their
// relative canonical order (appends always do: the canonical order is
// (time, insertion index), and surviving rows are only compared within
// themselves). `touched` lists, ascending, distinct and below
// n.NumVertices(), every endpoint of an edge that is new or received new
// interactions; it may list more vertices than that, at the cost of
// recomputing their groups.
//
// Affected anchors for a touched vertex x:
//   - 2-hop cycles a→b→a: a changed edge on one is (a,b) or (b,a), so the
//     anchor is touched → anchor x.
//   - 3-hop cycles a→b→c→a and 2-hop chains a→b→c: a changed edge (u, v)
//     has its tail u at the anchor, or at b, one hop after it; a cycle's
//     closing edge also has its head v at the anchor → anchor x and the
//     in-neighbors of x.
func (t *Table) Update(n *tin.Network, touched []tin.VertexID) *Table {
	if t.Cyclic && t.Hops == 2 {
		return t.rebuilt(n, touched)
	}
	affected := make(map[tin.VertexID]bool, len(touched))
	for _, x := range touched {
		affected[x] = true
		for _, in := range n.InEdges(x) {
			affected[n.Edge(in).From] = true
		}
	}
	return t.rebuilt(n, slices.Sorted(maps.Keys(affected)))
}

// Update refreshes all bundled tables (see Table.Update).
func (t Tables) Update(n *tin.Network, touched []tin.VertexID) Tables {
	out := Tables{
		L2: t.L2.Update(n, touched),
		L3: t.L3.Update(n, touched),
	}
	if t.C2 != nil {
		out.C2 = t.C2.Update(n, touched)
	}
	return out
}
