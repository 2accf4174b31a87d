package tin

import (
	"fmt"
	"math"
	"sort"
)

// Network is a whole interaction network (Definition 1 of the paper): a
// directed multigraph over dense vertex ids with an interaction sequence on
// every edge. It is append-oriented and, once finalized, compacted into a
// cache-local CSR layout (see csr.go); flow is computed on subgraphs
// extracted from it (ExtractSubgraph, or the pattern matchers in
// internal/pattern).
//
// Two internal representations back the same API:
//
//   - Building (before Finalize): jagged per-edge sequences, per-vertex
//     adjacency slices and a (from,to) hash index — cheap to append to.
//   - Finalized: one interaction arena holding every sequence back to back
//     in canonical order, a flat edge table whose Seq fields are sub-slices
//     of the arena, offset-based out/in adjacency, and a sorted pair index
//     replacing the hash map. The arena layout is exactly the FNTB v2
//     on-disk layout, so snapshots can be mmap'd and served zero-copy.
type Network struct {
	numV  int
	edges []Edge

	// Builder state, released by Finalize.
	bOut, bIn [][]EdgeID
	// edgeIdx maps (from<<32 | to) to the edge id, for O(1) edge lookup
	// while building. Parallel edges are collapsed at load time:
	// AddInteraction on an existing (from,to) pair appends to the existing
	// edge's sequence. After Finalize the sorted pair index (pairKeys /
	// pairIDs in csr.go) answers the same lookups without a map.
	edgeIdx map[int64]EdgeID

	// Finalized CSR state; see csr.go.
	arena         []Interaction
	outOff, inOff []int32
	outAdj, inAdj []EdgeID
	pairKeys      []int64
	pairIDs       []EdgeID

	// mm keeps the snapshot mapping alive while the CSR arrays alias it;
	// nil for heap-backed networks. See mmap.go.
	mm *mmapRegion

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
		numV:    numV,
		bOut:    make([][]EdgeID, numV),
		bIn:     make([][]EdgeID, numV),
		edgeIdx: make(map[int64]EdgeID),
		maxTime: math.Inf(-1),
	}
}

func pairKey(from, to VertexID) int64 { return int64(from)<<32 | int64(uint32(to)) }

// NumVertices returns the number of vertices.
func (n *Network) NumVertices() int { return n.numV }

// NumEdges returns the number of distinct (from, to) edges.
func (n *Network) NumEdges() int { return len(n.edges) }

// NumInteractions returns the total number of interactions.
func (n *Network) NumInteractions() int { return n.numIA }

// Edge returns the edge with the given id.
func (n *Network) Edge(e EdgeID) *Edge { return &n.edges[e] }

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
	key := pairKey(from, to)
	id, ok := n.edgeIdx[key]
	if !ok {
		id = EdgeID(len(n.edges))
		n.edges = append(n.edges, Edge{From: from, To: to})
		n.edgeIdx[key] = id
		n.bOut[from] = append(n.bOut[from], id)
		n.bIn[to] = append(n.bIn[to], id)
	}
	n.edges[id].Seq = append(n.edges[id].Seq, Interaction{Time: t, Qty: q, Ord: n.nextOrd})
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
	n.nextOrd, n.maxTime = rankEdges(n.edges, n.numIA)
	n.buildCSR()
}

// rankEdges assigns the canonical order to the interactions of an edge
// table: every interaction gets its rank by (Time, current Ord) — current
// Ords are insertion indices, unique within the table — as its new Ord,
// and each run not already marked canonical is re-sorted by it. It returns
// the number of interactions ranked (the next free Ord) and the latest
// timestamp (-inf when there is none). The Seq slices are the storage,
// jagged or arena-backed, so the same body serves Network.Finalize,
// Graph.Finalize and the re-rank that ends MergeUnordered. total is a
// capacity hint.
func rankEdges(edges []Edge, total int) (next int64, maxTime float64) {
	refs := make([]*Interaction, 0, total)
	for e := range edges {
		for i := range edges[e].Seq {
			refs = append(refs, &edges[e].Seq[i])
		}
	}
	sort.Slice(refs, func(a, b int) bool {
		ia, ib := refs[a], refs[b]
		if ia.Time != ib.Time {
			return ia.Time < ib.Time
		}
		return ia.Ord < ib.Ord
	})
	maxTime = math.Inf(-1)
	if len(refs) > 0 {
		maxTime = refs[len(refs)-1].Time
	}
	for rank, ia := range refs {
		ia.Ord = int64(rank)
	}
	for e := range edges {
		if seq := edges[e].Seq; !edges[e].canonical {
			sort.Slice(seq, func(a, b int) bool { return seq[a].Ord < seq[b].Ord })
			edges[e].canonical = true
		}
	}
	return int64(len(refs)), maxTime
}

// Finalized reports whether Finalize has been called.
func (n *Network) Finalized() bool { return n.finalized }

// HasEdge reports whether an edge from -> to exists, and returns its id.
func (n *Network) HasEdge(from, to VertexID) (EdgeID, bool) {
	if !n.finalized {
		id, ok := n.edgeIdx[pairKey(from, to)]
		return id, ok
	}
	return n.lookupPair(pairKey(from, to))
}

// OutEdges returns the ids of the outgoing edges of v. The returned slice
// is owned by the network and must not be modified.
func (n *Network) OutEdges(v VertexID) []EdgeID {
	if !n.finalized {
		return n.bOut[v]
	}
	return n.outAdj[n.outOff[v]:n.outOff[v+1]]
}

// InEdges returns the ids of the incoming edges of v. The returned slice is
// owned by the network and must not be modified.
func (n *Network) InEdges(v VertexID) []EdgeID {
	if !n.finalized {
		return n.bIn[v]
	}
	return n.inAdj[n.inOff[v]:n.inOff[v+1]]
}

// OutDegree returns the number of distinct successors of v.
func (n *Network) OutDegree(v VertexID) int { return len(n.OutEdges(v)) }

// InDegree returns the number of distinct predecessors of v.
func (n *Network) InDegree(v VertexID) int { return len(n.InEdges(v)) }

// AvgQty returns the mean interaction quantity over the whole network
// (the "avg. flow" column of the paper's Table 4 reports per-dataset
// average transferred quantity).
func (n *Network) AvgQty() float64 {
	if n.numIA == 0 {
		return 0
	}
	var s float64
	for e := range n.edges {
		s += n.edges[e].TotalQty()
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
		Edges:        len(n.edges),
		Interactions: n.numIA,
		AvgQty:       n.AvgQty(),
	}
}
