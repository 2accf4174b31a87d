package tin

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Network is a whole interaction network (Definition 1 of the paper): a
// directed multigraph over dense vertex ids with an interaction sequence on
// every edge. It is append-oriented and, once finalized, compacted into a
// cache-local CSR layout (see csr.go); flow is computed on subgraphs
// extracted from it (ExtractSubgraph, or the pattern matchers in
// internal/pattern).
//
// A network has two states:
//
//   - Building (before Finalize): a write-only log (builder) owned by the
//     one builder. Only AddInteraction, NumVertices, NumInteractions and
//     Finalized are meaningful; every other accessor reads an empty image,
//     and RestrictWindow panics.
//   - Finalized: an immutable value, a base (csr.go) and, over it, a tail
//     (append.go) holding what was appended since the base was laid out.
//     Finalize scatters the log into a base: one interaction arena holding
//     every sequence back to back in canonical order, a flat edge table
//     whose Seq fields are sub-slices of the arena, offset-based out/in
//     adjacency and a sorted pair index; its layout is exactly the FNTB v2
//     on-disk layout, so snapshots can be mmap'd and served zero-copy. The
//     tail is nil until something is appended, and neither is ever written
//     once a reader can see it: an append derives the next version, which
//     shares the base.
type Network struct {
	numV int
	// base is the CSR image; empty while building.
	base *base
	// tail is what was appended since base was laid out; nil when nothing
	// was. Parallel edges are collapsed: an interaction on an existing
	// (from,to) pair joins that edge's sequence.
	tail *tail
	// build is the log of a network under construction; nil once finalized.
	build *builder

	numIA     int
	nextOrd   int64
	finalized bool

	// maxTime is the latest interaction timestamp (-inf when empty); it is
	// derived by Finalize and maintained by the append path (append.go).
	maxTime float64
}

// logChunk is the number of records in one chunk of a builder's log (96
// KiB): a chunk is allocated whole and never grown, so growing the log
// copies nothing. Loading the 1.85 M-interaction Bitcoin corpus (20 000
// vertices) on a shared 2-vCPU Xeon VM, the chunks allocate 105 MB and peak
// at 104 MB resident; one []logRec grown by append allocates 330 MB and
// peaks at 208–221 MB, because every growth holds the old and the new
// backing array at once, and loads 0.2 s slower.
const logChunk = 1 << 12

// logRec is one interaction as the builder logs it.
type logRec struct {
	time, qty float64
	edge      EdgeID
}

// builder is what AddInteraction writes and Finalize reads, once: the edges
// in first-occurrence order and every interaction in insertion order. It
// holds no per-edge sequence and no adjacency; Finalize lays those out.
type builder struct {
	idx map[int64]EdgeID // pair key -> edge id
	// from and to are the edge table: edge e runs from[e] -> to[e].
	from, to []VertexID
	// count[e] is the number of interactions logged on edge e.
	count []int
	// log holds the interactions in insertion order, logChunk to a chunk.
	log [][]logRec
	qty float64 // the sum of the logged quantities
	// maxTime is the latest time logged; unsorted is set once a record
	// precedes an earlier one in time.
	maxTime  float64
	unsorted bool
}

// NewNetwork creates an empty network with numV vertices.
func NewNetwork(numV int) *Network {
	return &Network{
		numV:    numV,
		base:    &base{},
		build:   &builder{idx: make(map[int64]EdgeID), maxTime: math.Inf(-1)},
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
	n.add(from, to, t, q)
	return true
}

// add logs a validated interaction between distinct vertices. It does not
// check the vertex range: the text reader decides the vertex count after
// the last line.
func (n *Network) add(from, to VertexID, t, q float64) {
	b := n.build
	key := pairKey(from, to)
	id, ok := b.idx[key]
	if !ok {
		id = EdgeID(len(b.from))
		b.idx[key] = id
		b.from, b.to, b.count = append(b.from, from), append(b.to, to), append(b.count, 0)
	}
	b.count[id]++
	if n.numIA%logChunk == 0 {
		b.log = append(b.log, make([]logRec, 0, logChunk))
	}
	last := len(b.log) - 1
	b.log[last] = append(b.log[last], logRec{time: t, qty: q, edge: id})
	if t < b.maxTime {
		b.unsorted = true
	} else {
		b.maxTime = t
	}
	b.qty += q
	n.numIA++
}

// Finalize assigns the canonical order to all interactions and lays the
// network out in the CSR layout. Must be called once before the network is
// queried.
func (n *Network) Finalize() {
	if n.finalized {
		panic("tin: Finalize called twice")
	}
	n.finalized = true
	n.base, n.maxTime = n.build.layout(n.numV, n.numIA), n.build.maxTime
	n.nextOrd = int64(n.numIA)
	n.build = nil
}

// layout lays the log of total records out as a base over numV vertices:
// it ranks, counts and scatters. The rank of a record is its position in
// the canonical order, by (time, insertion index); a log in time order — a
// saved file, a window of a network, a stream — is its own rank order,
// anything else is sorted once. Each edge's run of the arena is placed by a
// prefix sum of the per-edge counts, and walking the log in rank order
// fills every run in canonical order, so no run is sorted on its own.
func (b *builder) layout(numV, total int) *base {
	rec := func(i int) *logRec { return &b.log[i/logChunk][i%logChunk] }
	// order maps rank -> log index; nil when the log is in time order. (An
	// int32 index bounds the log at 2^31 records, 100 GB of log and arena.)
	var order []int32
	if b.unsorted {
		order = make([]int32, total)
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(x, y int32) int {
			if c := cmp.Compare(rec(int(x)).time, rec(int(y)).time); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
	}
	// count[e] becomes the cursor of edge e's run: its start, then, once
	// every record is placed, its end.
	off := 0
	for e, c := range b.count {
		b.count[e] = off
		off += c
	}
	arena := make([]Interaction, total)
	for rank := range total {
		i := rank
		if order != nil {
			i = int(order[rank])
		}
		r := rec(i)
		arena[b.count[r.edge]] = Interaction{Time: r.time, Qty: r.qty, Ord: int64(rank)}
		b.count[r.edge]++
	}
	bs := &base{edges: make([]Edge, len(b.from)), arena: arena}
	start := 0
	for e := range bs.edges {
		end := b.count[e]
		bs.edges[e] = Edge{From: b.from[e], To: b.to[e], Seq: arena[start:end:end]}
		start = end
	}
	bs.indexEdges(numV, nil, nil)
	bs.setQtySum(b.qty)
	return bs
}

// rankEdges assigns the canonical order to the interactions of an edge
// table whose current Ords are insertion indices — unique, below bound,
// ascending along every run: each gets its rank by (Time, insertion index)
// as its new Ord. Refs are placed in insertion order, not sorted into it;
// a table already in time order needs no sort at all, and otherwise one
// stable sort on Time alone is the rank order, for the refs and for any run
// out of time order. It returns the new Ord bound (the number of
// interactions ranked) and the latest timestamp (-inf when there is none).
// The Seq slices are the storage, jagged or arena-backed: the same body
// serves Graph.Finalize and the re-rank that ends WithMerged (on a
// freshly folded base nobody else can see). A network under construction
// has no edge table to rank; its Finalize ranks the log (builder.layout).
func rankEdges(edges []Edge, bound int64) (next int64, maxTime float64) {
	byTime := func(a, b Interaction) int { return cmp.Compare(a.Time, b.Time) }
	byRefTime := func(a, b *Interaction) int { return cmp.Compare(a.Time, b.Time) }
	refs := placeByOrd(bound, func(put func(int64, *Interaction)) {
		for e := range edges {
			seq := edges[e].Seq
			if !slices.IsSortedFunc(seq, byTime) {
				slices.SortStableFunc(seq, byTime)
			}
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
	return findPair(n.tail.keys, n.tail.ids, key)
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
