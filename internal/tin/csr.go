package tin

import (
	"slices"
	"sync"
	"sync/atomic"
)

// CSR image of a finalized network — its base.
//
// Finalize scatters the builder's interaction log into flat,
// offset-indexed arrays chosen so that the hot loops — Algorithm 1
// preprocessing feeds, Dinic on the time-expanded graph, the Figure 10
// seed extraction and the pattern adjacency walks — iterate over
// contiguous memory instead of chasing per-edge pointers:
//
//	arena    []Interaction  every sequence back to back, grouped by edge,
//	                        each group sorted in canonical order; Ord values
//	                        are the global canonical ranks
//	edges    []Edge         flat edge table; Seq is arena[off:end:end]
//	outOff   []int32        len numV+1; outAdj[outOff[v]:outOff[v+1]] are
//	outAdj   []EdgeID       v's outgoing edge ids, ascending
//	inOff    []int32        likewise for incoming edges
//	inAdj    []EdgeID
//	pairKeys []int64        sorted (from<<32|to) keys; binary search
//	pairIDs  []EdgeID       replaces the builder's pair table for HasEdge
//
// Every array is a flat numeric slice, which is what makes the FNTB v2
// snapshot (binary.go) a byte-for-byte image of this struct: the writer
// writes these slices as they are, and an mmap'd snapshot serves them
// zero-copy (mmap.go).
//
// A base is never written after it is built: an append derives a new
// network version that shares the base and carries what was added in a
// small tail (append.go), so deriving costs O(batch) whatever the size of
// the base. Two O(N) routines lay out a fresh image: builder.layout, the
// first image of a network under construction (network.go), and buildBase,
// the fold of base + tail into a new base (also before the re-rank that ends
// an out-of-order merge). Three-index sub-slicing of Seq
// guarantees that nothing can ever grow into a neighbouring edge's run (or
// into a read-only mapping).
type base struct {
	edges         []Edge
	arena         []Interaction
	outOff, inOff []int32
	outAdj, inAdj []EdgeID
	pairKeys      []int64
	pairIDs       []EdgeID

	// mm keeps the snapshot mapping alive while the arrays alias it; nil
	// for heap-backed images. See mmap.go.
	mm *mmapRegion

	// tip is the newest tail derived over this base. A tail's runs grow in
	// place past the length older versions can see, so only one line of
	// versions may extend them: a derivation must swap itself in for the
	// tail it started from, and one that loses (its parent was already
	// superseded) folds onto a base of its own first.
	tip atomic.Pointer[tail]

	// qty is the sum of all quantities in the arena: handed over by whoever
	// laid the image out (Finalize, a fold), else scanned at most once and
	// only when asked for — a mapped image must not be read at load.
	qtyOnce sync.Once
	qty     float64
}

// numV is the vertex count the image was laid out for. A version can have
// more (WithVertices); the extra vertices have no adjacency in the base.
func (b *base) numV() int { return len(b.outOff) - 1 }

func (b *base) outRun(v VertexID) []EdgeID {
	if int(v) >= b.numV() {
		return nil
	}
	return b.outAdj[b.outOff[v]:b.outOff[v+1]]
}

func (b *base) inRun(v VertexID) []EdgeID {
	if int(v) >= b.numV() {
		return nil
	}
	return b.inAdj[b.inOff[v]:b.inOff[v+1]]
}

// qtySum returns the sum of all quantities in the image.
func (b *base) qtySum() float64 {
	b.qtyOnce.Do(func() {
		for e := range b.edges {
			b.qty += b.edges[e].TotalQty()
		}
	})
	return b.qty
}

// setQtySum hands a fresh image the sum its builder already knows — what
// was added while building, or the folded base's sum plus its tail's — and
// saves it the scan.
func (b *base) setQtySum(s float64) {
	b.qtyOnce.Do(func() { b.qty = s })
}

// buildBase lays out a fresh CSR image over numV vertices from numE edges
// whose sequences (arena-backed or tail runs — edge(e) says where) hold
// total interactions: it copies every run into one arena in edge-id order
// and derives the adjacency arrays. pairKeys/pairIDs are the sorted
// pair index when the caller has one cheaper than a sort of all edges (a
// fold merges two sorted indexes); nil derives it from the edge table.
// Nothing of the source is retained.
func buildBase(numV, numE, total int, edge func(EdgeID) *Edge, pairKeys []int64, pairIDs []EdgeID) *base {
	b := &base{
		edges: make([]Edge, numE),
		arena: make([]Interaction, 0, total),
	}
	for e := range b.edges {
		src := edge(EdgeID(e))
		off := len(b.arena)
		b.arena = append(b.arena, src.Seq...)
		b.edges[e] = Edge{From: src.From, To: src.To, Seq: b.arena[off:len(b.arena):len(b.arena)]}
	}
	b.indexEdges(numV, pairKeys, pairIDs)
	return b
}

// indexEdges derives the adjacency and (unless given) pair-lookup arrays
// from the edge table — for builder.layout and for buildBase. A snapshot
// loader derives neither: it checks that the stored sections are what this
// would derive (image.check, binary.go).
func (b *base) indexEdges(numV int, pairKeys []int64, pairIDs []EdgeID) {
	b.outOff, b.inOff, b.outAdj, b.inAdj = buildAdjacency(numV, b.edges)
	if pairKeys == nil {
		pairKeys, pairIDs = b.pairIndex()
	}
	b.pairKeys, b.pairIDs = pairKeys, pairIDs
}

// buildAdjacency derives the offset-based out/in adjacency from an edge
// table. Edges are scanned in id order, so each vertex's run lists its
// edges ascending by id, which is the order they were first seen in.
func buildAdjacency(numV int, edges []Edge) (outOff, inOff []int32, outAdj, inAdj []EdgeID) {
	outOff = make([]int32, numV+1)
	inOff = make([]int32, numV+1)
	for e := range edges {
		outOff[edges[e].From+1]++
		inOff[edges[e].To+1]++
	}
	for v := 0; v < numV; v++ {
		outOff[v+1] += outOff[v]
		inOff[v+1] += inOff[v]
	}
	outAdj = make([]EdgeID, len(edges))
	inAdj = make([]EdgeID, len(edges))
	outCur := make([]int32, numV)
	inCur := make([]int32, numV)
	copy(outCur, outOff[:numV])
	copy(inCur, inOff[:numV])
	for e := range edges {
		f, t := edges[e].From, edges[e].To
		outAdj[outCur[f]] = EdgeID(e)
		outCur[f]++
		inAdj[inCur[t]] = EdgeID(e)
		inCur[t]++
	}
	return outOff, inOff, outAdj, inAdj
}

// pairIndex derives the sorted (from,to) lookup arrays from the out
// adjacency. Vertex v's keys are v<<32|to, so the sorted index is the
// out-runs in vertex order, each sorted by To: the same array a sort of
// every key gives, for a sort of each vertex's few.
func (b *base) pairIndex() ([]int64, []EdgeID) {
	keys := make([]int64, len(b.outAdj))
	ids := make([]EdgeID, len(b.outAdj))
	for v := range b.numV() {
		lo, hi := b.outOff[v], b.outOff[v+1]
		run := keys[lo:hi]
		// A run's To values are distinct, so sorting (To, id) packed into
		// one int64 sorts it by To.
		for i, e := range b.outAdj[lo:hi] {
			run[i] = int64(b.edges[e].To)<<32 | int64(e)
		}
		slices.Sort(run)
		for i, k := range run {
			ids[int(lo)+i] = EdgeID(uint32(k))
			run[i] = pairKey(VertexID(v), VertexID(k>>32))
		}
	}
	return keys, ids
}

type pairSorter struct {
	keys []int64
	ids  []EdgeID
}

func (p *pairSorter) Len() int           { return len(p.keys) }
func (p *pairSorter) Less(a, b int) bool { return p.keys[a] < p.keys[b] }
func (p *pairSorter) Swap(a, b int) {
	p.keys[a], p.keys[b] = p.keys[b], p.keys[a]
	p.ids[a], p.ids[b] = p.ids[b], p.ids[a]
}

// findPair binary-searches a sorted pair index — the base's, or a tail's.
func findPair(keys []int64, ids []EdgeID, key int64) (EdgeID, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(keys) || keys[lo] != key {
		return 0, false
	}
	return ids[lo], true
}
