package pattern

import (
	"slices"
	"sync"

	"flownet/internal/core"
	"flownet/internal/tin"
)

// InstanceFlow computes the maximum flow through a rigid pattern instance.
//
// On a decomposable pattern it is the greedy scan over the instance's edge
// runs by position (scanInstance): no flow graph is built and nothing is
// allocated. Lemma 2 makes greedy the maximum flow there, and the scan
// moves what the greedy scan of the instance's flow graph moves, in the
// same order, so the flow is the bits of PreSim's class-A answer.
//
// Any other pattern's instance is assembled into a flow graph (splitting
// the anchor of a cyclic pattern into source and sink copies) and solved
// with the paper's complete PreSim pipeline, engine being its exact solver.
func InstanceFlow(n *tin.Network, p *Pattern, inst *Instance, engine core.Engine) (float64, error) {
	if p.decomposable() {
		return scanInstance(n, p, inst), nil
	}
	g := n.BuildFlowGraph(inst.EdgeIDs, inst.V[p.Source], inst.V[p.Sink])
	res, err := core.PreSim(g, engine)
	if err != nil {
		return 0, err
	}
	return res.Flow, nil
}

// decomposable reports Lemma 2 on the split pattern: every vertex other
// than Source and Sink has exactly one outgoing edge. Instance vertices are
// distinct, so this is core.GreedySoluble on the flow graph of every
// instance: the greedy flow is the maximum flow, instance by instance. An
// acyclic pattern's sink may also have an outgoing edge (the instance's
// flow graph keeps it), which core.ScanRuns takes if it is one and does
// not lead back to the sink; otherwise the pattern is not decomposable.
func (p *Pattern) decomposable() bool {
	out := func(v int) (d, head int) {
		for _, e := range p.Edges {
			if e[0] == v {
				d, head = d+1, e[1]
			}
		}
		return d, head
	}
	for v := 0; v < p.NV; v++ {
		if v == p.Source || v == p.Sink {
			continue
		}
		if d, _ := out(v); d != 1 {
			return false
		}
	}
	if p.Cyclic() {
		return true // the sink copy has no outgoing edge
	}
	d, v := out(p.Sink)
	for steps := 0; d == 1 && steps < p.NV && v != p.Source; steps++ {
		if v == p.Sink {
			return false
		}
		_, v = out(v)
	}
	return d <= 1
}

// The greedy scan of a pattern instance runs over positions, one per
// pattern vertex plus, for a cyclic pattern, a sink copy at NV: the
// attachment rules of the instance's flow graph (tin's BuildFlowGraph). An
// edge leaves its tail's position and enters its head's, except that an
// edge into the anchor of a cyclic pattern enters the sink copy.

// sinkPos is the position of the sink.
func (p *Pattern) sinkPos() int {
	if p.Cyclic() {
		return p.NV
	}
	return p.Sink
}

// headPos is the position pattern edge j enters.
func (p *Pattern) headPos(j int) int {
	if h := p.Edges[j][1]; h != p.Sink {
		return h
	}
	return p.sinkPos()
}

// scanInstance is the greedy flow of a decomposable pattern's instance:
// core.ScanRuns over its edges' runs, by position.
func scanInstance(n *tin.Network, p *Pattern, inst *Instance) float64 {
	var seqStack [8][]tin.Interaction
	var fromStack, toStack [8]int
	seqs, from, to := seqStack[:0], fromStack[:0], toStack[:0]
	for j, e := range p.Edges {
		seqs = append(seqs, n.Edge(inst.EdgeIDs[j]).Seq)
		from = append(from, e[0])
		to = append(to, p.headPos(j))
	}
	return core.ScanRuns(seqs, from, to, p.Source, p.sinkPos(), nil)
}

// petals returns the pattern edges of each petal — a chain from the source
// to the sink — in the order of the source's outgoing edges, when the
// pattern is a bundle of at least two of them: every vertex other than
// Source and Sink has one incoming and one outgoing edge, and every edge
// lies on a petal (P5: a→b→a and a→c→d→a). Otherwise it returns nil.
func (p *Pattern) petals() [][]int {
	degree := func(v, end int) (d, last int) {
		for j, e := range p.Edges {
			if e[end] == v {
				d, last = d+1, j
			}
		}
		return d, last
	}
	var petals [][]int
	covered := 0
	for j, e := range p.Edges {
		if e[0] != p.Source {
			continue
		}
		petal := []int{j}
		for v := e[1]; v != p.Sink; {
			in, _ := degree(v, 1)
			out, next := degree(v, 0)
			if v == p.Source || in != 1 || out != 1 {
				return nil
			}
			petal = append(petal, next)
			v = p.Edges[next][1]
		}
		petals = append(petals, petal)
		covered += len(petal)
	}
	if len(petals) < 2 || covered != len(p.Edges) {
		return nil
	}
	return petals
}

// searchDecomposable is SearchGB on a decomposable rigid pattern. The
// anchors fan out (searchAnchors); each is enumerated by its worker's own
// matcher, and each instance's flow is the positional greedy scan — over
// its edges' runs, or over its petals' arrival sequences when the pattern
// is a bundle of petals, each petal summarised once per anchor.
func searchDecomposable(n *tin.Network, p *Pattern, opts Options) (Summary, error) {
	plan, err := buildPlan(p)
	if err != nil {
		return Summary{Pattern: p.Name}, err
	}
	petals := p.petals()
	return searchAnchors(p.Name, n, opts, func(c *collector, a tin.VertexID) []float64 {
		return c.rigid(n, p, plan, petals, a, opts.MaxInstances)
	})
}

// collector finds and solves the instances of one anchor at a time, of a
// decomposable rigid pattern (rigid) or a relaxed one (relaxed). It is
// pooled, so each worker reuses one — its matcher, closing index, petal
// memo and grouper — across anchors and searches: the only allocation per
// anchor is the flows it hands to the fold. A collector is put back only
// after a clean return, which leaves its closing index all -1.
type collector struct {
	m      matcher // m.fn is visit; m.into serves relaxed as well
	g      grouper
	petals [][]int
	max    int64
	flows  []float64
	memo   petalMemo
	runs   [][]tin.Interaction // the petal summaries of the instance at hand
}

var collectors = sync.Pool{New: func() any {
	c := new(collector)
	c.m.fn = c.visit
	return c
}}

// rigid returns the flows of the instances at anchor a, in enumeration
// order, at most max of them (0 = all).
func (c *collector) rigid(n *tin.Network, p *Pattern, plan *matchPlan, petals [][]int, a tin.VertexID, max int64) []float64 {
	c.m.n, c.m.p, c.m.plan = n, p, plan
	if len(c.m.inst.V) != p.NV || len(c.m.inst.EdgeIDs) != len(p.Edges) {
		c.m.inst = Instance{V: make([]tin.VertexID, p.NV), EdgeIDs: make([]tin.EdgeID, len(p.Edges))}
	}
	c.petals, c.max = petals, max
	c.flows = c.flows[:0]
	c.memo.reset()
	c.m.anchor(a)
	// A pooled collector must not pin the network.
	c.m.n, c.m.p, c.m.plan, c.petals = nil, nil, nil, nil
	clear(c.runs[:cap(c.runs)])
	clear(c.memo.runs[:cap(c.memo.runs)])
	return cloneFlows(c.flows)
}

// relaxed returns the flows of the instances of a relaxed pattern of the
// given kind at anchor a that bundle at least minPaths paths: the walker's
// paths, grouped, each admitted one's flow computed once.
func (c *collector) relaxed(n *tin.Network, kind Kind, a tin.VertexID, minPaths int) []float64 {
	hops, cyclic := kind.shape()
	c.g.kind = kind
	for pa := range anchoredPaths(n, a, hops, cyclic, &c.m.into) {
		if c.g.admits(pa.verts()) {
			c.g.add(pa.verts(), pa.flow(n, nil))
		}
	}
	return cloneFlows(c.g.instances(minPaths))
}

// cloneFlows copies an anchor's flows out of the collector's scratch for
// the fold, which may hold them while other anchors are collected.
func cloneFlows(flows []float64) []float64 {
	if len(flows) == 0 {
		return nil
	}
	return slices.Clone(flows)
}

// visit is the matcher's callback: it solves one instance and reports
// whether the anchor has not yet given max instances.
func (c *collector) visit(inst *Instance) bool {
	var flow float64
	if c.petals == nil {
		flow = scanInstance(c.m.n, c.m.p, inst)
	} else {
		flow = c.petalFlow(inst)
	}
	c.flows = append(c.flows, flow)
	return c.max <= 0 || int64(len(c.flows)) < c.max
}

// petalFlow is the flow of an instance of a petal bundle: the positional
// scan over its petals' arrival sequences (Lemma 3), each a run from the
// source straight into the sink. The sink receives the positive transfers
// scanInstance would move into it, in the same Ord order, so the flow is
// the same bits.
func (c *collector) petalFlow(inst *Instance) float64 {
	var spanStack [8][2]int
	var fromStack, toStack [8]int
	spans, from, to := spanStack[:0], fromStack[:0], toStack[:0]
	for _, petal := range c.petals {
		spans = append(spans, c.memo.summary(c.m.n, inst, petal))
		from, to = append(from, 0), append(to, 1)
	}
	c.runs = c.runs[:0]
	for _, s := range spans {
		c.runs = append(c.runs, c.memo.slab[s[0]:s[1]])
	}
	return core.ScanRuns(c.runs, from, to, 0, 1, nil)
}

// petalMemo holds the arrival sequences of the petals met at one anchor,
// each computed the first time an instance uses the petal. Petals are
// found by their edge ids in a trie over the anchor's paths, one map step
// per edge.
type petalMemo struct {
	child map[trieStep]int32 // (node, edge) → node; node 0 is the anchor
	spans [][2]int           // per node: its path's summary in slab, [-1, -1] if none
	slab  []tin.Interaction
	runs  [][]tin.Interaction // the edge runs of the petal being summarised
}

type trieStep struct {
	node int32
	edge tin.EdgeID
}

// reset readies the memo for the next anchor, keeping its memory.
func (m *petalMemo) reset() {
	if m.child == nil {
		m.child = make(map[trieStep]int32)
	}
	clear(m.child)
	m.spans = append(m.spans[:0], [2]int{-1, -1})
	m.slab = m.slab[:0]
}

// summary returns the bounds in slab of the arrival sequence at the end of
// the petal whose pattern edges are petal, as inst maps them: the chain
// case of core.ScanRuns (core.PathArrivals), run once per petal and anchor.
func (m *petalMemo) summary(n *tin.Network, inst *Instance, petal []int) [2]int {
	node := int32(0)
	for _, j := range petal {
		step := trieStep{node, inst.EdgeIDs[j]}
		next, ok := m.child[step]
		if !ok {
			next = int32(len(m.spans))
			m.spans = append(m.spans, [2]int{-1, -1})
			m.child[step] = next
		}
		node = next
	}
	if s := m.spans[node]; s[0] >= 0 {
		return s
	}
	m.runs = m.runs[:0]
	for _, j := range petal {
		m.runs = append(m.runs, n.Edge(inst.EdgeIDs[j]).Seq)
	}
	lo := len(m.slab)
	core.PathArrivals(m.runs, &m.slab)
	m.spans[node] = [2]int{lo, len(m.slab)}
	return m.spans[node]
}
