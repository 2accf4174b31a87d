package tin

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// Network is a whole interaction network (Definition 1 of the paper): a
// directed multigraph over dense vertex ids with an interaction sequence on
// every edge. It is append-oriented and, once finalized, compacted into a
// cache-local CSR layout (see csr.go); flow is computed on subgraphs
// extracted from it (ExtractSubgraph, or the pattern matchers in
// internal/pattern).
//
// One representation backs both states of the API — a base (csr.go) and,
// over it, a tail (append.go) holding what was added since the base was
// laid out:
//
//   - Building (before Finalize): a tail over an empty base — jagged
//     per-edge sequences and per-vertex adjacency runs — owned by the one
//     builder and written in place, one interaction at a time; its pair
//     index is a hash map because edges arrive one by one.
//   - Finalized: an immutable value. Finalize folds the builder's tail
//     into a base: one interaction arena holding every sequence back to
//     back in canonical order, a flat edge table whose Seq fields are
//     sub-slices of the arena, offset-based out/in adjacency and a sorted
//     pair index; its layout is exactly the FNTB v2 on-disk layout, so
//     snapshots can be mmap'd and served zero-copy. The tail is nil until
//     something is appended, and neither is ever written once a reader can
//     see it: an append derives the next version, which shares the base.
type Network struct {
	numV int
	// base is the CSR image; empty while building.
	base *base
	// tail is what was added since base was laid out; nil when nothing was.
	// Parallel edges are collapsed: an interaction on an existing (from,to)
	// pair joins that edge's sequence.
	tail *tail

	numIA     int
	nextOrd   int64
	finalized bool

	// maxTime is the latest interaction timestamp (-inf when empty); it is
	// derived by Finalize and maintained by the append path (append.go).
	maxTime float64
}

// NewNetwork creates an empty network with numV vertices.
func NewNetwork(numV int) *Network {
	return &Network{
		numV: numV,
		base: &base{},
		tail: &tail{
			slots: &slots{out: make([]atomic.Int32, numV), in: make([]atomic.Int32, numV)},
			idx:   make(map[int64]EdgeID),
		},
		maxTime: math.Inf(-1),
	}
}

func pairKey(from, to VertexID) int64 { return int64(from)<<32 | int64(uint32(to)) }

// NumVertices returns the number of vertices.
func (n *Network) NumVertices() int { return n.numV }

// NumEdges returns the number of distinct (from, to) edges.
func (n *Network) NumEdges() int {
	if n.tail != nil {
		return len(n.base.edges) + len(n.tail.fresh)
	}
	return len(n.base.edges)
}

// NumInteractions returns the total number of interactions.
func (n *Network) NumInteractions() int { return n.numIA }

// Edge returns the edge with the given id. Its Seq is one contiguous run
// wherever it lives — base arena or tail — and, like the edge itself, is
// owned by the network and must not be modified.
func (n *Network) Edge(e EdgeID) *Edge {
	if n.tail != nil {
		return n.tail.edge(n.base, e)
	}
	return &n.base.edges[e]
}

// AddInteraction records that quantity q flowed from -> to at time t,
// creating the edge if necessary. Self loops are ignored (they cannot
// affect any flow between distinct vertices) and reported as false.
func (n *Network) AddInteraction(from, to VertexID, t, q float64) bool {
	if n.finalized {
		panic("tin: AddInteraction after Finalize")
	}
	if from == to {
		return false
	}
	if from < 0 || int(from) >= n.numV || to < 0 || int(to) >= n.numV {
		panic(fmt.Sprintf("tin: interaction (%d,%d) out of vertex range [0,%d)", from, to, n.numV))
	}
	if q < 0 || math.IsNaN(q) || math.IsNaN(t) || math.IsInf(t, 0) || math.IsInf(q, 0) {
		panic(fmt.Sprintf("tin: invalid interaction (%v,%v)", t, q))
	}
	b := n.tail
	key := pairKey(from, to)
	id, ok := b.idx[key]
	if !ok {
		id = EdgeID(len(b.fresh))
		b.fresh = append(b.fresh, Edge{From: from, To: to})
		b.idx[key] = id
		b.out = extend(b.out, b.slots.out, nil, from, id)
		b.in = extend(b.in, b.slots.in, nil, to, id)
	}
	b.fresh[id].Seq = append(b.fresh[id].Seq, Interaction{Time: t, Qty: q, Ord: n.nextOrd})
	b.added++
	b.qty += q
	n.nextOrd++
	n.numIA++
	return true
}

// Finalize assigns the canonical order to all interactions, sorts every
// edge sequence and compacts the network into the CSR layout. Must be
// called once before the network is queried.
func (n *Network) Finalize() {
	if n.finalized {
		panic("tin: Finalize called twice")
	}
	n.finalized = true
	edges, qty := n.tail.fresh, n.tail.qty
	n.nextOrd, n.maxTime = rankEdges(edges, n.nextOrd)
	n.base = buildBase(n.numV, len(edges), n.numIA, func(e EdgeID) *Edge { return &edges[e] }, nil, nil)
	n.base.setQtySum(qty)
	n.tail = nil
}

// rankEdges assigns the canonical order to the interactions of an edge
// table whose current Ords are insertion indices — unique, below bound,
// ascending along every run: each gets its rank by (Time, insertion index)
// as its new Ord. Refs are placed in insertion order, not sorted into it;
// a table already in time order (a saved file, a stream) needs no sort at
// all, and otherwise one stable sort on Time alone is the rank order, for
// the refs and for any run out of time order. It returns the new Ord bound
// (the number of interactions ranked) and the latest timestamp (-inf when
// there is none). The Seq slices are the storage, jagged or arena-backed:
// the same body serves Network.Finalize, Graph.Finalize and the re-rank
// that ends MergeUnordered (on a freshly folded base nobody else can see).
func rankEdges(edges []Edge, bound int64) (next int64, maxTime float64) {
	byTime := func(a, b Interaction) int { return cmp.Compare(a.Time, b.Time) }
	byRefTime := func(a, b *Interaction) int { return cmp.Compare(a.Time, b.Time) }
	refs := placeByOrd(bound, func(put func(int64, *Interaction)) {
		for e := range edges {
			seq := edges[e].Seq
			if !slices.IsSortedFunc(seq, byTime) {
				slices.SortStableFunc(seq, byTime)
			}
			edges[e].canonical = true
			for i := range seq {
				put(seq[i].Ord, &seq[i])
			}
		}
	})
	if !slices.IsSortedFunc(refs, byRefTime) {
		slices.SortStableFunc(refs, byRefTime)
	}
	maxTime = math.Inf(-1)
	for rank, ia := range refs {
		ia.Ord, maxTime = int64(rank), ia.Time // the last ranked is the latest
	}
	return int64(len(refs)), maxTime
}

// Finalized reports whether Finalize has been called.
func (n *Network) Finalized() bool { return n.finalized }

// HasEdge reports whether an edge from -> to exists, and returns its id.
func (n *Network) HasEdge(from, to VertexID) (EdgeID, bool) {
	key := pairKey(from, to)
	if id, ok := findPair(n.base.pairKeys, n.base.pairIDs, key); ok || n.tail == nil {
		return id, ok
	}
	return n.tail.find(key)
}

// OutEdges returns the ids of the outgoing edges of v. The returned slice
// is owned by the network and must not be modified.
func (n *Network) OutEdges(v VertexID) []EdgeID {
	if n.tail != nil {
		if run, ok := tailRun(n.tail.out, n.tail.slots.out, v); ok {
			return run
		}
	}
	return n.base.outRun(v)
}

// InEdges returns the ids of the incoming edges of v. The returned slice is
// owned by the network and must not be modified.
func (n *Network) InEdges(v VertexID) []EdgeID {
	if n.tail != nil {
		if run, ok := tailRun(n.tail.in, n.tail.slots.in, v); ok {
			return run
		}
	}
	return n.base.inRun(v)
}

// OutDegree returns the number of distinct successors of v.
func (n *Network) OutDegree(v VertexID) int { return len(n.OutEdges(v)) }

// InDegree returns the number of distinct predecessors of v.
func (n *Network) InDegree(v VertexID) int { return len(n.InEdges(v)) }

// AvgQty returns the mean interaction quantity over the whole network
// (the "avg. flow" column of the paper's Table 4 reports per-dataset
// average transferred quantity). The sum rides the version — a base's is
// handed on from fold to fold and scanned only for an image read from disk,
// once; a tail's is kept as interactions are added — so the call does not
// cost a pass over the interactions.
func (n *Network) AvgQty() float64 {
	if n.numIA == 0 {
		return 0
	}
	s := n.base.qtySum()
	if n.tail != nil {
		s += n.tail.qty
	}
	return s / float64(n.numIA)
}

// Stats summarizes a network in the shape of the paper's Table 4.
type Stats struct {
	Vertices     int
	Edges        int
	Interactions int
	AvgQty       float64
}

// Stats returns the network's summary statistics.
func (n *Network) Stats() Stats {
	return Stats{
		Vertices:     n.numV,
		Edges:        n.NumEdges(),
		Interactions: n.numIA,
		AvgQty:       n.AvgQty(),
	}
}
