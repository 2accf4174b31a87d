package tin

import "sort"

// CSR layout of a finalized network.
//
// Finalize compacts the jagged builder representation into flat,
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
//	pairIDs  []EdgeID       replaces the builder's hash map for HasEdge
//
// Every array is a flat numeric slice, which is what makes the FNTB v2
// snapshot (binary.go) a byte-for-byte image of this struct: an mmap'd
// snapshot serves these slices zero-copy (mmap.go).
//
// The layout is immutable in place. Appends (append.go) rebuild the arena
// — the ISSUE's "live networks re-finalize into CSR on generation bumps" —
// which costs O(numIA) per accepted batch but keeps every query on the
// compact path; three-index sub-slicing of Seq guarantees that nothing can
// ever grow into a neighbouring edge's run (or into a read-only mapping).

// buildCSR compacts the ranked builder representation (jagged sequences,
// already sorted canonically by rankEdges) into the CSR arrays and
// releases the builder state.
func (n *Network) buildCSR() {
	arena := make([]Interaction, 0, n.numIA)
	for e := range n.edges {
		off := len(arena)
		arena = append(arena, n.edges[e].Seq...)
		n.edges[e].Seq = arena[off:len(arena):len(arena)]
		n.edges[e].canonical = true
	}
	n.arena = arena
	n.indexEdges()
	n.bOut, n.bIn, n.edgeIdx = nil, nil, nil
}

// indexEdges (re)derives the adjacency and pair-lookup arrays from the edge
// table — after Finalize, after an append that created edges, and after the
// copying snapshot reader rebuilt the table.
func (n *Network) indexEdges() {
	n.outOff, n.inOff, n.outAdj, n.inAdj = buildAdjacency(n.numV, n.edges)
	n.pairKeys, n.pairIDs = buildPairIndex(n.edges)
}

// buildAdjacency derives the offset-based out/in adjacency from an edge
// table. Edges are scanned in id order, so each vertex's run lists its
// edges ascending by id — the same order the jagged builder produced.
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

// buildPairIndex derives the sorted (from,to) lookup arrays from an edge
// table.
func buildPairIndex(edges []Edge) ([]int64, []EdgeID) {
	keys := make([]int64, len(edges))
	ids := make([]EdgeID, len(edges))
	for e := range edges {
		keys[e] = pairKey(edges[e].From, edges[e].To)
		ids[e] = EdgeID(e)
	}
	sort.Sort(&pairSorter{keys, ids})
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

// lookupPair binary-searches the sorted pair index.
func (n *Network) lookupPair(key int64) (EdgeID, bool) {
	i, ok := sort.Find(len(n.pairKeys), func(i int) int {
		switch {
		case key < n.pairKeys[i]:
			return -1
		case key > n.pairKeys[i]:
			return 1
		}
		return 0
	})
	if !ok {
		return 0, false
	}
	return n.pairIDs[i], true
}

// detach copies every CSR array that may alias the snapshot mapping onto
// the heap and releases the mapping. It must run before any in-place
// mutation of a zero-copy network (the mapping is read-only), and it is
// what makes munmap safe: after detach, nothing in the network references
// mapped memory.
func (n *Network) detach() {
	if n.mm == nil {
		return
	}
	arena := make([]Interaction, len(n.arena))
	copy(arena, n.arena)
	// The arena is grouped by edge in id order, so offsets are cumulative.
	off := 0
	for e := range n.edges {
		l := len(n.edges[e].Seq)
		n.edges[e].Seq = arena[off : off+l : off+l]
		off += l
	}
	n.arena = arena
	n.outOff = append([]int32(nil), n.outOff...)
	n.outAdj = append([]EdgeID(nil), n.outAdj...)
	n.inOff = append([]int32(nil), n.inOff...)
	n.inAdj = append([]EdgeID(nil), n.inAdj...)
	n.pairKeys = append([]int64(nil), n.pairKeys...)
	n.pairIDs = append([]EdgeID(nil), n.pairIDs...)
	n.releaseMmap()
}

// applyAppend extends a finalized network with pre-validated items by
// rebuilding the CSR arena with the new interactions in place — the
// re-finalize step behind every streaming generation bump. Self loops are
// skipped. It returns the number of interactions appended, whether any
// appended item was out of time order relative to the evolving maximum
// timestamp (the caller decides whether that is legal), and the distinct
// ids of the edges that are new or received new interactions, in ascending
// order — the change delta that incremental consumers (pattern-table
// updates, footprint-based cache retention) key on.
func (n *Network) applyAppend(items []BatchItem) (appended int, anyLate bool, changed []EdgeID) {
	apply := items[:0:0]
	for _, it := range items {
		if it.From != it.To {
			apply = append(apply, it)
		}
	}
	if len(apply) == 0 {
		return 0, false, nil
	}
	n.detach()

	// Resolve every item's edge, creating missing edges in first-occurrence
	// order (ids continue the existing sequence, so adjacency runs stay
	// ascending by id).
	oldE := len(n.edges)
	var newPairs map[int64]EdgeID
	edgeOf := make([]EdgeID, len(apply))
	addCount := make([]int32, oldE)
	for i, it := range apply {
		key := pairKey(it.From, it.To)
		id, ok := n.lookupPair(key)
		if !ok {
			if newPairs != nil {
				id, ok = newPairs[key]
			}
			if !ok {
				id = EdgeID(len(n.edges))
				n.edges = append(n.edges, Edge{From: it.From, To: it.To, canonical: true})
				if newPairs == nil {
					newPairs = make(map[int64]EdgeID)
				}
				newPairs[key] = id
			}
		}
		edgeOf[i] = id
		if int(id) >= len(addCount) {
			addCount = append(addCount, make([]int32, len(n.edges)-len(addCount))...)
		}
		addCount[id]++
	}

	// Lay out the new arena: each edge's old run followed by its new items.
	arena := make([]Interaction, n.numIA+len(apply))
	cursor := make([]int, len(n.edges))
	starts := make([]int, len(n.edges))
	off := 0
	for e := range n.edges {
		old := n.edges[e].Seq
		copy(arena[off:], old)
		starts[e] = off
		cursor[e] = off + len(old)
		end := off + len(old) + int(addCount[e])
		n.edges[e].Seq = arena[off:end:end] // filled below
		off = end
	}
	runningMax := n.maxTime
	for i, it := range apply {
		e := edgeOf[i]
		c := cursor[e]
		arena[c] = Interaction{Time: it.Time, Qty: it.Qty, Ord: n.nextOrd}
		n.nextOrd++
		cursor[e] = c + 1
		if c > starts[e] && arena[c-1].Time > it.Time {
			// The edge's sequence is no longer time-sorted; the caller's
			// re-rank (anyLate is set below) restores it.
			n.edges[e].canonical = false
		}
		if it.Time < runningMax {
			anyLate = true
		} else {
			runningMax = it.Time
		}
		if it.Time > n.maxTime {
			n.maxTime = it.Time
		}
	}
	n.arena = arena
	n.numIA += len(apply)
	if len(n.edges) != oldE {
		n.indexEdges()
	}
	// addCount marks exactly the edges whose runs grew (it was sized per
	// resolved edge above), so the distinct changed set falls out of one
	// ascending scan.
	for e, c := range addCount {
		if c > 0 {
			changed = append(changed, EdgeID(e))
		}
	}
	return len(apply), anyLate, changed
}
