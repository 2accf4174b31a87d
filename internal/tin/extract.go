package tin

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// This file is the query fast path: extraction cost is proportional to the
// query's footprint, never to the network. Reachability and the §6.2 path
// DFS run over dense epoch-stamped marks (queryScratch), pair queries
// collect their edge set by walking the CSR out-adjacency of the fwd∩bwd
// frontier instead of scanning the edge table, time windows are applied
// per edge with a binary search before graph assembly, and the flow graph
// is built directly into its final memory layout (no intermediate maps, no
// Finalize sort). Equivalence with the original map-and-scan pipeline is
// locked in by extract_oracle_test.go and FuzzExtractEquivalence.
//
// A query that asks for its residue (Query.Residue) copies less. A seed
// query decides Lemma 2 over the admitted edges' in-window runs and, if it
// holds, answers with the runs themselves, slices of the network's
// interactions, and no graph. A pair query works in network vertex ids
// over the CSR (pairWalk): its backward reach counts the instance's sizes,
// a depth-first search decides whether it is cyclic, and if it is, the
// query finds its live interactions — those on a source-to-sink path that
// respects the canonical order, the rule of internal/teg — by
// earliest-arrival and latest-departure labelling over the network's
// adjacency, and builds the graph of those alone, with no edge list of the
// whole instance and no per-edge scratch. On each edge they are one
// contiguous run, so the copy is one slice per live edge. FuzzPairResidue
// (in internal/teg) holds the residue to the engine's own prune of the
// full instance.

// ExtractOptions control seed-based subgraph extraction (Section 6.2 of the
// paper).
type ExtractOptions struct {
	// MaxHops is the maximum length of a returning path from the seed back
	// to itself. The paper uses 3.
	MaxHops int
	// MaxInteractions discards subgraphs with more interactions than this.
	// The paper discards subgraphs over 10000 interactions. Zero means no
	// limit. The cap counts the full (unwindowed) sequences of the admitted
	// edges, so a Window never changes which subgraphs are discarded.
	MaxInteractions int
	// Window, when non-nil, restricts the extracted graph to interactions
	// with Time in [Window.From, Window.To] (inclusive), found per edge
	// before assembly. The result is identical to extracting without a
	// window and calling Graph.RestrictWindow, but out-of-window
	// interactions are never materialized.
	Window *TimeWindow
}

// DefaultExtractOptions mirror the paper's setup: paths up to three hops,
// subgraphs over 10K interactions discarded.
func DefaultExtractOptions() ExtractOptions {
	return ExtractOptions{MaxHops: 3, MaxInteractions: 10000}
}

// Query is one flow-instance extraction request. The paper cuts a flow
// instance out of the network in exactly two ways, and Source/Sink select
// between them:
//
//   - Source == Sink is the §6.2 seed query: all simple paths of length up
//     to MaxHops that leave the seed, pass through other vertices and
//     return to it are merged into one subgraph, with the seed split into
//     a source (receiving its outgoing edges) and a sink (receiving its
//     incoming edges), cf. Figure 10. The paper's flow machinery requires
//     DAG inputs, but a union of returning paths can contain 2-cycles
//     between intermediate vertices (x→y from one path and y→x from
//     another). Paths are therefore admitted in deterministic adjacency
//     order and a path is skipped if adding its edges would create a cycle
//     among intermediate vertices; this choice is documented in DESIGN.md.
//
//   - Source != Sink is the pair query of the problem statement: the
//     subgraph induced by vertices lying on some directed path from source
//     to sink, with edges entering the source or leaving the sink dropped
//     (they cannot contribute to the flow — the source only emits and the
//     sink only absorbs). The result may be cyclic; Greedy, the LP and the
//     time-expanded engine handle cycles, while the Pre/PreSim pipelines
//     require DAGs. MaxHops and MaxInteractions are ignored.
//
// Window applies to both, after the viability checks: a window never turns
// an existing instance into a missing one, it only empties it.
type Query struct {
	Source, Sink VertexID
	ExtractOptions
	// Footprint asks for Extraction.Footprint.
	Footprint bool
	// Residue asks for the smallest form of the instance that solves to its
	// bits, where there is one smaller than the instance's graph:
	//
	//   - on a seed query whose instance is greedy-soluble (Lemma 2, class
	//     A), its runs (Extraction.Runs) and no graph, which the greedy scan
	//     by position solves to the bits Greedy gives on the graph;
	//   - on a pair query whose instance is cyclic, its time-respecting
	//     residue (Extraction.Residue): the graph of its live interactions,
	//     those on a path from the source to the sink along which each
	//     interaction follows the previous one in the canonical order
	//     (internal/teg's rule), which the time-expanded engine solves to
	//     the instance's bits.
	//
	// Any other instance is answered whole whatever Residue says: the
	// Pre/PreSim classes are defined on the whole DAG.
	Residue bool
}

// Extraction is the answer to a Query.
type Extraction struct {
	// Graph is the finalized flow instance, or its residue when Residue is
	// true; nil when Ok is false, and when Runs answers instead. Nothing
	// else refers to it: the caller owns it and may reduce it in place.
	Graph *Graph
	// Runs, when Query.Residue is set and the seed query's instance is
	// greedy-soluble (Lemma 2), is the instance by position instead of a
	// Graph: the non-empty in-window run of each admitted edge, run i
	// leading from local vertex RunFrom[i] to RunTo[i] — the source 0, the
	// sink 1, inner vertices 2 and up, as the Graph would number them. The
	// runs are slices of the network's interactions, with its Ords: valid
	// while the caller holds the network, and never to be written.
	Runs           [][]Interaction
	RunFrom, RunTo []int
	// Ok is false when no instance exists: the seed has no returning path
	// or its subgraph exceeds MaxInteractions, or the sink is unreachable
	// from the source.
	Ok bool
	// Vertices, Edges and Interactions are the instance's live vertex,
	// edge and interaction counts when Ok — its Graph's, or, for runs or a
	// residue, those the instance's Graph would report.
	Vertices, Edges, Interactions int
	// Residue is true when Graph is the residue of a cyclic pair instance
	// (Query.Residue).
	Residue bool
	// Footprint (only when Query.Footprint is set) is the query's read
	// footprint in ascending order: for a seed query the vertices whose
	// outgoing adjacency the path enumeration iterated, for a pair query
	// the union of the forward reachability set of the source and the
	// backward reachability set of the sink.
	//
	// The footprint is a staleness certificate for caching the answer —
	// positive or negative — across appends, which only ever add
	// interactions. Seed: every edge of every candidate path departs from
	// an iterated vertex, and a vertex never iterated was only ever reached
	// at the hop limit, so an append that touches no footprint vertex
	// cannot add, remove, or resize any admissible path. Pair: a batch that
	// grows either reachability set must do so through a new edge departing
	// from (forward) or arriving at (backward) a vertex already in that
	// set, and a batch that changes the admitted edge set without growing
	// reachability only touches edges whose endpoints sit in both sets. In
	// both cases an append touching no footprint vertex leaves the answer
	// (Graph or Runs, Ok) byte-identical, so the footprint is reported for
	// Ok == false too.
	//
	// A footprint of more than MaxFootprintVertices vertices is reported as
	// nil, unknown: an answer that read that much of the network is rarely
	// kept across an append, and a cache compares the footprint on each hit.
	Footprint []VertexID
}

// MaxFootprintVertices caps the footprint Extract reports (see
// Extraction.Footprint).
const MaxFootprintVertices = 1024

// Extract answers q against the finalized network. It only reads the
// network, so concurrent calls are safe; working memory comes from one
// package-wide pool, so steady-state calls allocate only what they return:
// the graph, or a class-A seed's runs and their endpoints (and the
// footprint).
func (n *Network) Extract(q Query) Extraction {
	sc := scratchPool.Get().(*queryScratch)
	defer scratchPool.Put(sc)
	sc.begin(n.numV)

	// Both collectors leave the read footprint in sc.vertsA; the seed's also
	// leaves its admitted edge ids in sc.edgeIDs (ascending, distinct), a
	// pair's are collected below unless its residue answers.
	var x Extraction
	var ok bool
	p := pairWalk{n: n, sc: sc, source: q.Source, sink: q.Sink, w: q.Window}
	if q.Source == q.Sink {
		ok = n.collectSeed(q.Source, q.ExtractOptions, sc)
	} else {
		ok = p.reach(&x)
	}
	if q.Footprint && len(sc.vertsA) <= MaxFootprintVertices {
		x.Footprint = slices.Clone(sc.vertsA)
		slices.Sort(x.Footprint)
	}
	if !ok {
		return Extraction{Footprint: x.Footprint}
	}
	// A seed's admitted edges are returning paths, and a pair's leave the
	// source, never enter it, and none leaves the sink, so the viability
	// checks below hold for every instance the collectors admit: the runs
	// and the residue need none of them.
	if q.Source != q.Sink {
		if q.Residue && p.cyclic() {
			x.Graph = p.residue()
			x.Ok, x.Residue = true, true
			return x
		}
		p.collect()
	}
	n.windowRuns(q.Window, sc)
	if q.Residue && q.Source == q.Sink && n.seedRuns(q.Source, sc, &x) {
		return x
	}
	g := n.buildFlowGraph(sc.edgeIDs, sc.lo, sc.hi, q.Source, q.Sink, sc)
	// Viability is judged on the unwindowed shape (the builder keeps edges
	// the window emptied), matching extract-then-RestrictWindow semantics.
	if g.InDegree(g.Source) != 0 || g.OutDegree(g.Sink) != 0 || g.OutDegree(g.Source) == 0 {
		return Extraction{Footprint: x.Footprint}
	}
	if q.Window != nil {
		g.DropEmptyEdges()
	}
	x.Graph, x.Ok = g, true
	x.Vertices, x.Edges, x.Interactions = g.NumLiveVertices(), g.NumLiveEdges(), g.NumInteractions()
	return x
}

// windowRuns sets sc.lo/sc.hi to the in-window run of each admitted edge
// (sc.edgeIDs).
func (n *Network) windowRuns(w *TimeWindow, sc *queryScratch) {
	k := len(sc.edgeIDs)
	sc.lo, sc.hi = growBuf(sc.lo, k), growBuf(sc.hi, k)
	for i, id := range sc.edgeIDs {
		lo, hi := w.bounds(n.Edge(id).Seq)
		sc.lo[i], sc.hi[i] = int32(lo), int32(hi)
	}
}

// seedRuns is Query.Residue on a seed query, over the admitted edges
// (sc.edgeIDs) and their in-window runs (windowRuns). It decides Lemma 2 as
// GreedySoluble does on the built graph after DropEmptyEdges — every local
// vertex but the terminals has exactly one out-edge whose run is non-empty
// — and, if it holds, records the non-empty runs, their local endpoints and
// the sizes the graph would report in x and reports true; otherwise it
// leaves x as it was, for the full build.
func (n *Network) seedRuns(seed VertexID, sc *queryScratch, x *Extraction) bool {
	ids := sc.edgeIDs
	nv := n.localIDs(ids, seed, seed, sc)
	sc.outdeg = growBuf(sc.outdeg, nv)
	outdeg := sc.outdeg
	clear(outdeg)
	edges, ias := 0, 0
	for i := range ids {
		if k := int(sc.hi[i] - sc.lo[i]); k > 0 {
			edges++
			ias += k
			outdeg[sc.elf[i]]++
		}
	}
	for _, d := range outdeg[2:] {
		if d != 1 {
			return false
		}
	}
	runs, ends := make([][]Interaction, edges), make([]int, 2*edges)
	j := 0
	for i, id := range ids {
		if sc.hi[i] > sc.lo[i] {
			runs[j] = n.Edge(id).Seq[sc.lo[i]:sc.hi[i]]
			ends[j], ends[edges+j] = int(sc.elf[i]), int(sc.elt[i])
			j++
		}
	}
	x.Runs, x.RunFrom, x.RunTo = runs, ends[:edges:edges], ends[edges:]
	x.Ok = true
	x.Vertices, x.Edges, x.Interactions = nv, edges, ias
	return true
}

// pairWalk is a pair query over the network's own CSR, in network vertex
// ids. Its forward reach from the source stamps markA (listed first in
// vertsA), its backward reach from the sink markB; both ignore edges into
// the source and out of the sink, which cannot carry flow — otherwise a
// vertex whose only route to the sink passes through the source would be
// admitted. An edge u→v is admitted, part of the instance, exactly when u
// is forward-reached and v backward-reached (each then in both sets), u is
// not the sink and v not the source.
type pairWalk struct {
	n            *Network
	sc           *queryScratch
	source, sink VertexID
	w            *TimeWindow
	fwd, bwd     int32 // the epochs of the two reaches
	nf           int   // sc.vertsA[:nf] is the forward set
}

// reach runs both reaches and leaves their union, the footprint, in
// sc.vertsA. The backward one counts the instance as it goes — expanding v,
// each in-edge from a forward-reached vertex is admitted — and records in x
// the sizes the instance's graph reports after DropEmptyEdges: every vertex
// of both sets (the two ends counted once, as the graph's source and sink),
// the admitted edges whose in-window run is non-empty and the interactions
// of those runs. It reports whether any edge is admitted, that is whether
// the sink is reachable from the source.
func (p *pairWalk) reach(x *Extraction) bool {
	n, sc := p.n, p.sc
	p.fwd = sc.nextEpoch()
	sc.vertsA = append(sc.vertsA[:0], p.source)
	sc.stack = append(sc.stack[:0], p.source)
	sc.markA[p.source] = p.fwd
	for len(sc.stack) > 0 {
		v := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		if v == p.sink {
			continue
		}
		for _, e := range n.OutEdges(v) {
			if u := n.Edge(e).To; u != p.source && sc.markA[u] != p.fwd {
				sc.markA[u] = p.fwd
				sc.vertsA = append(sc.vertsA, u)
				sc.stack = append(sc.stack, u)
			}
		}
	}
	p.nf = len(sc.vertsA)

	p.bwd = sc.nextEpoch()
	admitted, edges, ias, inner := 0, 0, 0, 0
	sc.markB[p.sink] = p.bwd
	if sc.markA[p.sink] != p.fwd {
		sc.vertsA = append(sc.vertsA, p.sink)
	}
	sc.stack = append(sc.stack[:0], p.sink)
	for len(sc.stack) > 0 {
		v := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		if v == p.source {
			continue
		}
		for _, e := range n.InEdges(v) {
			ed := n.Edge(e)
			u := ed.From
			if u == p.sink {
				continue
			}
			inF := sc.markA[u] == p.fwd
			if inF {
				admitted++
				if lo, hi := p.w.bounds(ed.Seq); hi > lo {
					edges++
					ias += hi - lo
				}
			}
			if sc.markB[u] != p.bwd {
				sc.markB[u] = p.bwd
				sc.stack = append(sc.stack, u)
				if !inF {
					sc.vertsA = append(sc.vertsA, u)
				} else if u != p.source {
					inner++
				}
			}
		}
	}
	x.Vertices, x.Edges, x.Interactions = 2+inner, edges, ias
	return admitted > 0
}

// cyclic reports whether the instance after DropEmptyEdges has a directed
// cycle, as Graph.TopoOrder decides it: an iterative depth-first search over
// the admitted edges with a non-empty in-window run, stopping at the first
// edge back into the search path. It is rooted at every vertex of the
// instance, not only the source: under a window, a cycle may lie among
// vertices that no non-empty edge reaches from the source. The search state
// lives in valA, free for forward-reached vertices: -1 not yet visited,
// -2 done, else on the path with the index of the next out-edge to try.
func (p *pairWalk) cyclic() bool {
	const unseen, done = -1, -2
	n, sc := p.n, p.sc
	forward := sc.vertsA[:p.nf]
	for _, v := range forward {
		sc.valA[v] = unseen
	}
	for _, root := range forward {
		if sc.markB[root] != p.bwd || sc.valA[root] != unseen {
			continue
		}
		sc.valA[root] = 0
		sc.stack = append(sc.stack[:0], root)
		for len(sc.stack) > 0 {
			u := sc.stack[len(sc.stack)-1]
			out := n.OutEdges(u)
			i := sc.valA[u]
			if u == p.sink || int(i) == len(out) {
				sc.valA[u] = done
				sc.stack = sc.stack[:len(sc.stack)-1]
				continue
			}
			sc.valA[u]++
			ed := n.Edge(out[i])
			v := ed.To
			if v == p.source || sc.markB[v] != p.bwd || sc.valA[v] == done {
				continue
			}
			if lo, hi := p.w.bounds(ed.Seq); hi == lo {
				continue
			}
			if sc.valA[v] != unseen {
				return true
			}
			sc.valA[v] = 0
			sc.stack = append(sc.stack, v)
		}
	}
	return false
}

// collect gathers the admitted edge ids into sc.edgeIDs, ascending: it walks
// the out-adjacency of the vertices in both reaches only, since every
// admitted edge departs from one, so the edge table is never scanned.
func (p *pairWalk) collect() {
	n, sc := p.n, p.sc
	sc.edgeIDs = sc.edgeIDs[:0]
	for _, v := range sc.vertsA[:p.nf] {
		if v == p.sink || sc.markB[v] != p.bwd {
			continue
		}
		for _, e := range n.OutEdges(v) {
			if u := n.Edge(e).To; u != p.source && sc.markB[u] == p.bwd {
				sc.edgeIDs = append(sc.edgeIDs, e)
			}
		}
	}
	// Adjacency walks emit edges grouped by From vertex in discovery order;
	// sort so the id order matches the original edge-table scan.
	sc.sortEdgeIDs()
}

// Labels of the residue's labelling. Ords are non-negative, so -1 precedes
// every interaction and MaxInt64 follows every one.
const (
	beforeAll = -1
	afterAll  = math.MaxInt64
)

// residue builds the residue of a cyclic instance: the graph of its live
// interactions, by two passes over the network's adjacency in network
// vertex ids, each reading an edge's in-window run where it reaches it.
//
// The residue applies teg's rule per edge run. Forward, ea[v] is the least
// Ord at which v receives an interaction that is kept forward — one whose
// tail is the source or was reached strictly earlier — computed by label
// setting in Ord order over the out-adjacency (labels only grow along a
// path). Backward, ld[v] is the greatest Ord at which v sends a
// forward-kept interaction whose head is the sink or sends one strictly
// later, by the mirror pass over the in-adjacency through ea-labelled tails
// only. An interaction on edge (u, v) is then live exactly when
// ea[u] < Ord < ld[v]: one contiguous part of the edge's run, since runs
// ascend in Ord. (Ords are unique in the network, so an arrival and a
// departure never tie: the comparisons could as well be non-strict.) Each
// relaxation needs one Ord search of a run, and the run's first and last
// Ords settle it without a search unless the label falls inside the run.
// The backward pass reads the live runs off the in-edges of the labelled
// heads as it goes and hands them, in edge-id order, to buildFlowGraph.
//
// The labels are indexed by network vertex and only the footprint's are
// set; every vertex a pass reads lies in it, since the tail of a
// traversable edge into a backward-reached vertex is backward-reached.
func (p *pairWalk) residue() *Graph {
	n, sc := p.n, p.sc
	if len(sc.ea) < n.numV {
		sc.ea, sc.ld = make([]int64, n.numV), make([]int64, n.numV)
	}
	ea, ld := sc.ea, sc.ld
	for _, v := range sc.vertsA {
		ea[v], ld[v] = afterAll, beforeAll
	}

	// Forward: earliest arrival, the source at -inf.
	ea[p.source] = beforeAll
	sc.heap = append(sc.heap[:0], label{ord: beforeAll, v: p.source})
	for len(sc.heap) > 0 {
		top := sc.pop()
		if top.ord != ea[top.v] || top.v == p.sink {
			continue // superseded by a smaller label, or the sink
		}
		for _, e := range n.OutEdges(top.v) {
			ed := n.Edge(e)
			v := ed.To
			if v == p.source || sc.markB[v] != p.bwd {
				continue
			}
			lo, hi := p.w.bounds(ed.Seq)
			run := ed.Seq[lo:hi]
			if len(run) == 0 || run[len(run)-1].Ord <= top.ord {
				continue
			}
			t := run[0].Ord
			if t <= top.ord {
				t = run[afterOrd(run, top.ord)].Ord
			}
			if t < ea[v] {
				ea[v] = t
				sc.push(label{ord: t, v: v})
			}
		}
	}

	// Backward: latest useful departure, the sink at +inf. The heap is a
	// min-heap, so its keys are negated. A vertex's label is final when it
	// is popped, so the live runs into it are read off its in-edges then:
	// the latest live interaction of a run is the tail's departure label.
	ld[p.sink] = afterAll
	sc.heap = append(sc.heap[:0], label{ord: -afterAll, v: p.sink})
	sc.spans = sc.spans[:0]
	for len(sc.heap) > 0 {
		top := sc.pop()
		to := -top.ord
		if to != ld[top.v] || top.v == p.source {
			continue
		}
		for _, e := range n.InEdges(top.v) {
			ed := n.Edge(e)
			u := ed.From
			if u == p.sink || ea[u] == afterAll {
				continue
			}
			from := ea[u]
			lo, hi := p.w.bounds(ed.Seq)
			run := ed.Seq[lo:hi]
			if len(run) == 0 || run[len(run)-1].Ord <= from || run[0].Ord >= to {
				continue
			}
			a, b := 0, len(run)
			if run[0].Ord <= from {
				a = afterOrd(run, from)
			}
			if run[len(run)-1].Ord >= to {
				b = afterOrd(run, to-1)
			}
			if a >= b { // ea[u] >= ld[v] can leave the bounds crossed
				continue
			}
			sc.spans = append(sc.spans, span{e: e, lo: int32(lo + a), hi: int32(lo + b)})
			if t := run[b-1].Ord; t > ld[u] {
				ld[u] = t
				sc.push(label{ord: -t, v: u})
			}
		}
	}
	slices.SortFunc(sc.spans, func(a, b span) int { return cmp.Compare(a.e, b.e) })
	k := len(sc.spans)
	ids := growBuf(sc.edgeIDs, k)
	sc.lo, sc.hi = growBuf(sc.lo, k), growBuf(sc.hi, k)
	for i, s := range sc.spans {
		ids[i], sc.lo[i], sc.hi[i] = s.e, s.lo, s.hi
	}
	sc.edgeIDs = ids
	return n.buildFlowGraph(ids, sc.lo, sc.hi, p.source, p.sink, sc)
}

// afterOrd returns the index of the first interaction of seq (ascending in
// Ord) whose Ord exceeds ord, or len(seq).
func afterOrd(seq []Interaction, ord int64) int {
	lo, hi := 0, len(seq)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if seq[m].Ord > ord {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// ExtractSubgraph is the seed query without a footprint: the §6.2
// returning-path subgraph around seed, or (nil, false) if the seed has no
// returning path or the subgraph exceeds opts.MaxInteractions.
func (n *Network) ExtractSubgraph(seed VertexID, opts ExtractOptions) (*Graph, bool) {
	x := n.Extract(Query{Source: seed, Sink: seed, ExtractOptions: opts})
	return x.Graph, x.Ok
}

// FlowSubgraphBetween is the unwindowed pair query without a footprint:
// the flow instance between two distinct vertices, or (nil, false) if the
// sink is unreachable from the source.
func (n *Network) FlowSubgraphBetween(source, sink VertexID) (*Graph, bool) {
	if source == sink {
		panic("tin: source equals sink; use ExtractSubgraph for returning-path flow")
	}
	x := n.Extract(Query{Source: source, Sink: sink})
	return x.Graph, x.Ok
}

// seedDFS enumerates returning paths without per-call closure state; depth
// counts edges on the current path.
type seedDFS struct {
	n                    *Network
	sc                   *queryScratch
	seed                 VertexID
	maxHops              int
	iterEpoch, pathEpoch int32
}

func (d *seedDFS) walk(v VertexID, depth int) {
	n, sc := d.n, d.sc
	for _, e := range n.OutEdges(v) {
		u := n.Edge(e).To
		if u == d.seed {
			if depth >= 1 { // at least one intermediate vertex
				sc.pathEdges = append(sc.pathEdges, sc.pathStack...)
				sc.pathEdges = append(sc.pathEdges, e)
				sc.pathEnds = append(sc.pathEnds, int32(len(sc.pathEdges)))
			}
			continue
		}
		if depth+1 >= d.maxHops || sc.markB[u] == d.pathEpoch {
			continue
		}
		if sc.markA[u] != d.iterEpoch {
			sc.markA[u] = d.iterEpoch
			sc.vertsA = append(sc.vertsA, u)
		}
		sc.markB[u] = d.pathEpoch
		sc.pathStack = append(sc.pathStack, e)
		d.walk(u, depth+1)
		sc.pathStack = sc.pathStack[:len(sc.pathStack)-1]
		sc.markB[u] = 0
	}
}

// collectSeed enumerates and admits the returning paths around seed. It
// reports false when no path survives or the admitted edges carry more than
// opts.MaxInteractions interactions.
func (n *Network) collectSeed(seed VertexID, opts ExtractOptions, sc *queryScratch) bool {
	if opts.MaxHops < 2 {
		panic(fmt.Sprintf("tin: a seed query (Source == Sink) needs MaxHops >= 2, got %d", opts.MaxHops))
	}

	// Collect candidate returning paths as runs of edge ids in the shared
	// flat buffer, in deterministic DFS order over adjacency lists. markA
	// holds the iterated set (listed in vertsA: the footprint), markB the
	// on-path set.
	d := seedDFS{n: n, sc: sc, seed: seed, maxHops: opts.MaxHops,
		iterEpoch: sc.nextEpoch(), pathEpoch: sc.nextEpoch()}
	sc.vertsA = append(sc.vertsA[:0], seed)
	sc.markA[seed] = d.iterEpoch
	sc.markB[seed] = d.pathEpoch
	sc.pathStack = sc.pathStack[:0]
	sc.pathEdges = sc.pathEdges[:0]
	sc.pathEnds = sc.pathEnds[:0]
	d.walk(seed, 0)

	// Admit paths one by one, skipping any path whose inner edges would
	// close a directed cycle among intermediate vertices. The incremental
	// digraph lives in markA/valA (list heads) plus the shared adjacency
	// pool; cycle checks stamp markB. The marks are re-purposed here, the
	// vertsA list is not.
	adjEpoch := sc.nextEpoch()
	sc.innerTo = sc.innerTo[:0]
	sc.innerNext = sc.innerNext[:0]
	sc.edgeIDs = sc.edgeIDs[:0]
	start := int32(0)
	for _, end := range sc.pathEnds {
		p := sc.pathEdges[start:end]
		start = end
		ok := true
		// Inner edges of the path are all but the first and last.
		for i := 1; i < len(p)-1; i++ {
			e := n.Edge(p[i])
			if sc.innerCreatesCycle(e.From, e.To, adjEpoch) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for i := 1; i < len(p)-1; i++ {
			e := n.Edge(p[i])
			sc.innerAdd(e.From, e.To, adjEpoch)
		}
		sc.edgeIDs = append(sc.edgeIDs, p...)
	}
	if len(sc.edgeIDs) == 0 {
		return false
	}

	slices.Sort(sc.edgeIDs)
	sc.edgeIDs = slices.Compact(sc.edgeIDs)
	total := 0
	for _, id := range sc.edgeIDs {
		total += len(n.Edge(id).Seq)
	}
	return opts.MaxInteractions <= 0 || total <= opts.MaxInteractions
}

// innerAdd records a→b in the admission digraph.
func (sc *queryScratch) innerAdd(a, b VertexID, adjEpoch int32) {
	head := int32(-1)
	if sc.markA[a] == adjEpoch {
		head = sc.valA[a]
	}
	sc.innerTo = append(sc.innerTo, int32(b))
	sc.innerNext = append(sc.innerNext, head)
	sc.markA[a] = adjEpoch
	sc.valA[a] = int32(len(sc.innerTo) - 1)
}

// innerCreatesCycle reports whether adding edge a→b to the admission
// digraph would close a directed cycle, i.e. whether b currently reaches a.
func (sc *queryScratch) innerCreatesCycle(a, b VertexID, adjEpoch int32) bool {
	if a == b {
		return true
	}
	seen := sc.nextEpoch()
	sc.stack = append(sc.stack[:0], b)
	sc.markB[b] = seen
	for len(sc.stack) > 0 {
		v := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		if v == a {
			return true
		}
		if sc.markA[v] != adjEpoch {
			continue
		}
		for j := sc.valA[v]; j >= 0; j = sc.innerNext[j] {
			u := VertexID(sc.innerTo[j])
			if sc.markB[u] != seen {
				sc.markB[u] = seen
				sc.stack = append(sc.stack, u)
			}
		}
	}
	return false
}

// BuildFlowGraph assembles a flow-computation Graph from a set of distinct
// network edges with the given source and sink network vertices. If source
// == sink, the vertex is split: its outgoing edges attach to the graph
// source and its incoming edges to the graph sink (Section 6.2 / Figure
// 10). The graph's interactions inherit the network's canonical order, so
// tie breaking is consistent with the full network. The returned graph is
// finalized. A repeated edge id panics.
func (n *Network) BuildFlowGraph(edgeIDs []EdgeID, source, sink VertexID) *Graph {
	sc := scratchPool.Get().(*queryScratch)
	defer scratchPool.Put(sc)
	sc.begin(n.numV)
	sc.lo, sc.hi = growBuf(sc.lo, len(edgeIDs)), growBuf(sc.hi, len(edgeIDs))
	for i, id := range edgeIDs {
		sc.lo[i], sc.hi[i] = 0, int32(len(n.Edge(id).Seq))
	}
	return n.buildFlowGraph(edgeIDs, sc.lo, sc.hi, source, sink, sc)
}

// localIDs sets sc.elf/sc.elt to the local endpoints of each edge of
// edgeIDs and returns the local vertex count: source 0, sink 1, inner 2+ in
// first-occurrence order (From before To, matching the original mapping
// order).
func (n *Network) localIDs(edgeIDs []EdgeID, source, sink VertexID, sc *queryScratch) int {
	k := len(edgeIDs)
	lidEpoch := sc.nextEpoch()
	sc.elf = growBuf(sc.elf, k)
	sc.elt = growBuf(sc.elt, k)
	nv := VertexID(2)
	mapLocal := func(v VertexID) VertexID {
		if sc.markA[v] == lidEpoch {
			return VertexID(sc.valA[v])
		}
		id := nv
		nv++
		sc.markA[v] = lidEpoch
		sc.valA[v] = int32(id)
		return id
	}
	for i, id := range edgeIDs {
		e := n.Edge(id)
		var lf, lt VertexID
		if e.From == source {
			lf = 0
		} else if e.From == sink && source != sink {
			lf = 1 // edge leaving the sink vertex: keep attached (caller's duty to avoid)
		} else {
			lf = mapLocal(e.From)
		}
		if e.To == sink {
			lt = 1
		} else if e.To == source && source != sink {
			lt = 0
		} else {
			lt = mapLocal(e.To)
		}
		sc.elf[i], sc.elt[i] = lf, lt
	}
	return int(nv)
}

// buildFlowGraph is the direct builder behind every extraction: it
// assembles the finalized graph straight into its final memory layout.
// edgeIDs must be distinct (a repeat panics); their order fixes local vertex
// ids (first-occurrence) exactly like the original builder, and graph edge ids
// follow the earliest-full-interaction order the original lazy creation
// produced. Edge i contributes the interactions Seq[lo[i]:hi[i]] — its
// in-window run, or its live run in a residue — in network canonical order
// with densely re-ranked Ords: relative order, and therefore every
// algorithm decision, is unchanged. The runs are merged, not sorted, and
// the merge hands the graph its Ord index (see Graph.InOrder). Empty edges
// stay alive for the caller's degree checks.
func (n *Network) buildFlowGraph(edgeIDs []EdgeID, lo, hi []int32, source, sink VertexID, sc *queryScratch) *Graph {
	k := len(edgeIDs)
	nv := n.localIDs(edgeIDs, source, sink, sc)

	// Graph edge ids: rank by earliest full-sequence interaction — the
	// order the lazy builder first encountered each edge in the Ord-sorted
	// ref stream. Network edges always carry >= 1 interaction.
	sc.order, sc.key = growBuf(sc.order, k), growBuf(sc.key, k)
	totalIA := 0
	for i, id := range edgeIDs {
		sc.order[i], sc.key[i] = int32(i), n.Edge(id).Seq[0].Ord
		totalIA += int(hi[i] - lo[i])
	}
	slices.SortFunc(sc.order, func(a, b int32) int { return cmp.Compare(sc.key[a], sc.key[b]) })
	sc.gid = growBuf(sc.gid, k)
	for r, i := range sc.order {
		// Ords are unique network-wide, so a repeated id sorts next to itself.
		if r > 0 && edgeIDs[i] == edgeIDs[sc.order[r-1]] {
			panic(fmt.Sprintf("tin: BuildFlowGraph: duplicate edge id %d", edgeIDs[i]))
		}
		sc.gid[i] = EdgeID(r)
	}

	// The graph's own memory: one block per kind, carved into cap-clamped
	// sub-slices so post-build mutation appends (AddReducedEdge) reallocate
	// instead of clobbering a neighbouring run.
	g := &Graph{
		NumV: nv, Source: 0, Sink: 1,
		Edges:     make([]Edge, k),
		liveEdges: k, liveVerts: nv,
		numIA: totalIA, nextOrd: int64(totalIA),
		finalized: true,
	}
	jag := make([][]EdgeID, 2*nv)
	g.out = jag[:nv:nv]
	g.in = jag[nv:][:nv:nv]
	bools := make([]bool, nv+k)
	for i := range bools {
		bools[i] = true
	}
	g.vertAlive = bools[:nv:nv]
	g.edgeAlive = bools[nv:][:k:k]
	degs := make([]int, 2*nv)
	g.outDeg = degs[:nv:nv]
	g.inDeg = degs[nv:][:nv:nv]
	ids := make([]EdgeID, 2*k+totalIA)
	adj := ids[: 2*k : 2*k]
	g.byOrd = ids[2*k:]
	arena := make([]Interaction, totalIA)

	for i := range edgeIDs {
		g.outDeg[sc.elf[i]]++
		g.inDeg[sc.elt[i]]++
	}
	off := 0
	for v := 0; v < nv; v++ {
		g.out[v] = adj[off : off : off+g.outDeg[v]]
		off += g.outDeg[v]
	}
	for v := 0; v < nv; v++ {
		g.in[v] = adj[off : off : off+g.inDeg[v]]
		off += g.inDeg[v]
	}

	// Edges, adjacency runs and arena offsets in creation order. Appending
	// graph edge ids in ascending creation order reproduces the original
	// AddEdge append order per vertex. The edge at position i gets its run
	// to merge, its arena offset and a cursor of what is merged.
	sc.runs, sc.off, sc.cur = growBuf(sc.runs, k), growBuf(sc.off, k), growBuf(sc.cur, k)
	clear(sc.cur)
	iaOff := int32(0)
	for r, i := range sc.order {
		lf, lt := sc.elf[i], sc.elt[i]
		end := iaOff + hi[i] - lo[i]
		g.Edges[r] = Edge{From: lf, To: lt, Seq: arena[iaOff:end:end]}
		g.out[lf] = append(g.out[lf], EdgeID(r))
		g.in[lt] = append(g.in[lt], EdgeID(r))
		sc.runs[i], sc.off[i] = n.Edge(edgeIDs[i]).Seq[lo[i]:hi[i]], iaOff
		iaOff = end
	}

	// Interactions in network canonical order, by a k-way merge of the
	// runs, each already in it; the dense rank becomes the graph Ord,
	// exactly what insert-then-Finalize assigned (canonical network order
	// is (Time, tie) order, Finalize's sort key). Runs are admitted in
	// sc.order: a run's key, its edge's first Ord, bounds its head from
	// below, so no run waiting for admission can precede an admitted head
	// smaller than its key. One admitted run, a, merges outside the heap
	// for as long as its head precedes the heap's top: a run that merges
	// on its own — every one-interaction edge of an unwindowed build —
	// never touches the heap.
	sc.heap = sc.heap[:0]
	next, a := 0, int32(-1) // sc.order[next:] wait for admission
	head := func(i int32) int64 {
		if i < 0 || int(sc.cur[i]) == len(sc.runs[i]) {
			return afterAll
		}
		return sc.runs[i][sc.cur[i]].Ord
	}
	for rank := range int64(totalIA) {
		for next < k {
			least := head(a)
			if len(sc.heap) > 0 {
				least = min(least, sc.heap[0].ord)
			}
			c := sc.order[next]
			if sc.key[c] > least {
				break
			}
			next++
			if h := head(c); h == afterAll {
				continue
			} else if head(a) == afterAll {
				a = c
			} else {
				sc.push(label{ord: h, v: c})
			}
		}
		if h := head(a); h == afterAll {
			a = sc.pop().v
		} else if len(sc.heap) > 0 && sc.heap[0].ord < h {
			a = sc.replace(label{ord: h, v: a}).v
		}
		j := sc.cur[a]
		sc.cur[a]++
		ia := sc.runs[a][j]
		arena[sc.off[a]+j] = Interaction{Time: ia.Time, Qty: ia.Qty, Ord: rank}
		g.byOrd[rank] = sc.gid[a]
	}
	clear(sc.runs[:k]) // a pooled scratch must not pin the network's arena
	return g
}

// sortEdgeIDs sorts sc.edgeIDs (non-negative) ascending in linear time: an
// LSD radix sort, one counting pass per byte, into the pooled sc.spareIDs
// and back. A byte in which no two ids differ needs no pass.
func (sc *queryScratch) sortEdgeIDs() {
	src := sc.edgeIDs
	var differ EdgeID
	for _, id := range src {
		differ |= id ^ src[0]
	}
	dst := growBuf(sc.spareIDs, len(src))
	for shift := 0; differ>>shift != 0; shift += 8 {
		if byte(differ>>shift) == 0 {
			continue
		}
		var at [256]int32
		for _, id := range src {
			at[byte(id>>shift)]++
		}
		var sum int32
		for d, c := range at {
			at[d], sum = sum, sum+c
		}
		for _, id := range src {
			d := byte(id >> shift)
			dst[at[d]] = id
			at[d]++
		}
		src, dst = dst, src
	}
	sc.edgeIDs, sc.spareIDs = src, dst
}
