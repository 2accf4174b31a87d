package pattern

import (
	"fmt"
	"iter"
	"slices"

	"flownet/internal/tin"
)

// Row is one precomputed path: Verts lists the path's vertices starting at
// the anchor (for cycles the closing return to the anchor is implicit),
// Edges the network edges along it, Flow the path's maximum flow, and Arr
// the greedy arrival sequence at the path's final vertex (Section 5.2
// stores exactly this pair of vertex sequence and arrival sequence).
type Row struct {
	Verts []tin.VertexID
	Edges []tin.EdgeID
	Flow  float64
	Arr   []tin.Interaction
}

// Anchor returns the path's starting vertex.
func (r *Row) Anchor() tin.VertexID { return r.Verts[0] }

// Last returns the path's final distinct vertex (for cycles, the last
// intermediate before returning to the anchor; for chains, the end vertex).
func (r *Row) Last() tin.VertexID { return r.Verts[len(r.Verts)-1] }

// Table is a precomputed path table: all cycles (or chains) of a fixed hop
// count, grouped contiguously by anchor in ascending anchor order — the
// layout that the merge joins of Section 5.2 rely on.
type Table struct {
	Hops   int
	Cyclic bool
	Rows   []Row

	index map[tin.VertexID][2]int // anchor -> [begin, end) in Rows
}

// RowsFor returns the contiguous row group of the given anchor.
func (t *Table) RowsFor(anchor tin.VertexID) []Row {
	r, ok := t.index[anchor]
	if !ok {
		return nil
	}
	return t.Rows[r[0]:r[1]]
}

// groups iterates over the row groups in ascending anchor order.
func (t *Table) groups() iter.Seq2[tin.VertexID, []Row] {
	return func(yield func(tin.VertexID, []Row) bool) {
		for start := 0; start < len(t.Rows); {
			a := t.Rows[start].Anchor()
			end := start
			for end < len(t.Rows) && t.Rows[end].Anchor() == a {
				end++
			}
			if !yield(a, t.Rows[start:end]) {
				return
			}
			start = end
		}
	}
}

// Anchors iterates over the distinct anchors in ascending order.
func (t *Table) Anchors(fn func(anchor tin.VertexID, rows []Row)) {
	for a, rows := range t.groups() {
		fn(a, rows)
	}
}

// NumInteractions returns the total size of the stored arrival sequences,
// the dominant storage cost of the table.
func (t *Table) NumInteractions() int {
	total := 0
	for i := range t.Rows {
		total += len(t.Rows[i].Arr)
	}
	return total
}

// rebuilt returns the table brought current with n: the row groups of the
// given anchors (ascending, distinct) are recomputed with the walker — a
// group that does not exist yet appears, one whose paths are gone
// disappears — and every other group is carried over, keeping the
// ascending-anchor layout. Rows within a group are in walker order.
func (t *Table) rebuilt(n *tin.Network, anchors []tin.VertexID) *Table {
	// Most rows are carried over: sizing Rows once spares the copies and
	// clears of growing it by appends, most of an update's time.
	out := &Table{Hops: t.Hops, Cyclic: t.Cyclic, Rows: make([]Row, 0, len(t.Rows))}
	// A pooled collector lends its closing index, and its petal slab as the
	// scratch each row's arrivals are scanned into; a row keeps a copy at
	// its exact length, since the tables live as long as the network.
	c := collectors.Get().(*collector)
	walk := func(a tin.VertexID) {
		for p := range anchoredPaths(n, a, t.Hops, t.Cyclic, &c.m.into) {
			c.memo.slab = c.memo.slab[:0]
			flow := p.flow(n, &c.memo.slab)
			var arr []tin.Interaction
			if len(c.memo.slab) > 0 {
				arr = make([]tin.Interaction, len(c.memo.slab))
				copy(arr, c.memo.slab)
			}
			out.Rows = append(out.Rows, Row{
				Verts: slices.Clone(p.verts()),
				Edges: slices.Clone(p.edges()),
				Flow:  flow, Arr: arr,
			})
		}
	}
	for a, rows := range t.groups() {
		recomputed := false
		for len(anchors) > 0 && anchors[0] <= a {
			recomputed = anchors[0] == a
			walk(anchors[0])
			anchors = anchors[1:]
		}
		if !recomputed {
			out.Rows = append(out.Rows, rows...)
		}
	}
	for _, a := range anchors {
		walk(a)
	}
	collectors.Put(c)
	out.index = make(map[tin.VertexID][2]int)
	start := 0
	for a, rows := range out.groups() {
		out.index[a] = [2]int{start, start + len(rows)}
		start += len(rows)
	}
	return out
}

// build computes a whole table: the update of an empty one in which every
// vertex is an affected anchor.
func build(n *tin.Network, hops int, cyclic bool) *Table {
	all := make([]tin.VertexID, n.NumVertices())
	for a := range all {
		all[a] = tin.VertexID(a)
	}
	return (&Table{Hops: hops, Cyclic: cyclic}).rebuilt(n, all)
}

// PrecomputeCycles builds the table of all simple cycles of exactly the
// given hop count (2 → L2: a→b→a; 3 → L3: a→b→c→a), with per-row greedy
// flows and arrival sequences. Rows are produced anchor by anchor in
// ascending vertex order, and within an anchor in adjacency order — the
// same walk the graph-browsing relaxed searchers make, so GB and PB
// results are comparable exactly.
func PrecomputeCycles(n *tin.Network, hops int) *Table {
	if hops != 2 && hops != 3 {
		panic(fmt.Sprintf("pattern: unsupported cycle hops %d", hops))
	}
	return build(n, hops, true)
}

// PrecomputeChains builds the table of all 2-hop chains a→b→c over three
// distinct vertices (C2), which the paper precomputes for the Prosper
// Loans dataset only.
func PrecomputeChains(n *tin.Network) *Table { return build(n, 2, false) }

// Tables bundles the precomputed tables used by the PB searcher.
type Tables struct {
	L2 *Table // 2-hop cycles
	L3 *Table // 3-hop cycles
	C2 *Table // 2-hop chains (optional; nil when not precomputed)
}

// Precompute builds L2 and L3, and C2 as well when withChains is set
// (the paper could afford the chain table only on Prosper Loans).
func Precompute(n *tin.Network, withChains bool) Tables {
	t := Tables{
		L2: PrecomputeCycles(n, 2),
		L3: PrecomputeCycles(n, 3),
	}
	if withChains {
		t.C2 = PrecomputeChains(n)
	}
	return t
}
