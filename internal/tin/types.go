// Package tin implements the temporal interaction network substrate used by
// the flow-computation algorithms of Kosyfaki et al., "Flow Computation in
// Temporal Interaction Networks" (ICDE 2021).
//
// An interaction network is a directed graph in which every edge (v, u)
// carries a time-ordered sequence of interactions (t, q): at timestamp t a
// quantity q moves from v to u. The package provides two representations:
//
//   - Network: a large, append-oriented multigraph with vertex adjacency,
//     used for loading whole datasets and for pattern search.
//   - Graph: a compact flow-computation instance with a designated source
//     and sink, supporting the in-place mutations (interaction, edge and
//     vertex deletion) required by the paper's preprocessing (Alg. 1) and
//     simplification (Alg. 2) procedures.
//
// Canonical interaction order. The paper's LP constraint (2) orders
// interactions by strict timestamp and its examples use distinct timestamps.
// To make all solvers (greedy scan, LP, time-expanded reduction) agree
// exactly even when timestamps collide, this package fixes one canonical
// total order over interactions: ascending (Time, insertion index). The
// insertion index is assigned when interactions are added and is unique per
// Graph/Network. "Before" in every algorithm of this module means earlier in
// that total order.
package tin

import (
	"fmt"
	"math"
)

// VertexID identifies a vertex inside a Network or Graph. Vertices are dense
// integers in [0, NumVertices).
type VertexID = int32

// EdgeID identifies an edge inside a Network or Graph.
type EdgeID = int32

// Interaction is a single transfer event: quantity Qty moved along its edge
// at timestamp Time. Ord is the interaction's position in the canonical
// total order (see the package documentation); it is assigned by
// Graph.Finalize or Network.Finalize and is unique within its container.
type Interaction struct {
	Time float64
	Qty  float64
	Ord  int64
}

// Less reports whether a precedes b in the canonical total order.
func (a Interaction) Less(b Interaction) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Ord < b.Ord
}

// placeByOrd returns the items fill puts, each in the slot its Ord names,
// empty slots squeezed out: the order of a container without an Ord index
// (a Network, a graph's insertion order while Finalize ranks it), derived
// by index and never by comparison. It checks what an Ord is (see
// Graph.OrdBound): unique and inside [0, bound). A Graph's own order is
// the walk of its index, Graph.InOrder, which makes the same check.
func placeByOrd[T any](bound int64, fill func(put func(ord int64, item T))) []T {
	slot, full := make([]T, bound), make([]bool, bound)
	fill(func(ord int64, item T) {
		if uint64(ord) >= uint64(bound) || full[ord] {
			panic(fmt.Sprintf("tin: Ord %d is taken twice or outside [0,%d)", ord, bound))
		}
		slot[ord], full[ord] = item, true
	})
	placed := slot[:0]
	for ord, ok := range full {
		if ok {
			placed = append(placed, slot[ord])
		}
	}
	return placed
}

// String renders the interaction in the paper's "(t, q)" notation.
func (a Interaction) String() string {
	return fmt.Sprintf("(%v,%v)", trimFloat(a.Time), trimFloat(a.Qty))
}

func trimFloat(f float64) string {
	if f == math.Inf(1) {
		return "+inf"
	}
	if f == math.Inf(-1) {
		return "-inf"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

// Edge is a directed edge together with its interaction sequence. Seq is
// kept sorted in canonical order at all times after Finalize. In a
// finalized Network, Seq is a sub-slice of the network's interaction arena
// (see csr.go) rather than a per-edge allocation.
type Edge struct {
	From, To VertexID
	Seq      []Interaction
}

// TotalQty returns the sum of the quantities of all interactions on the
// edge. Useful as an upper bound of what the edge can ever carry.
func (e *Edge) TotalQty() float64 {
	var s float64
	for _, ia := range e.Seq {
		s += ia.Qty
	}
	return s
}
