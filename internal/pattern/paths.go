package pattern

import (
	"iter"

	"flownet/internal/core"
	"flownet/internal/tin"
)

// path is one anchored path of Section 5.2, by value: the vertices from the
// anchor on (a cycle's closing return to the anchor is implicit) and the
// network edges along them. Rows are built from paths; the relaxed GB
// searchers consume them as they are.
type path struct {
	v      [3]tin.VertexID
	e      [3]tin.EdgeID
	nv, ne int
}

func (p *path) verts() []tin.VertexID { return p.v[:p.nv] }
func (p *path) edges() []tin.EdgeID   { return p.e[:p.ne] }

// flow runs the Lemma-3 scan along the path (core.PathArrivals): its
// maximum flow, with the greedy arrival sequence at its end appended to
// arrivals when that is non-nil.
func (p *path) flow(n *tin.Network, arrivals *[]tin.Interaction) float64 {
	seqs := p.seqs(n)
	return core.PathArrivals(seqs[:p.ne], arrivals)
}

func (p *path) seqs(n *tin.Network) [3][]tin.Interaction {
	var seqs [3][]tin.Interaction
	for i, e := range p.edges() {
		seqs[i] = n.Edge(e).Seq
	}
	return seqs
}

// closing indexes the in-edges of one anchor a by their tails: edge[v] is
// the id of the edge v→a, or -1, so closing a cycle at a is one array read
// rather than a search of the network's edge keys. edge is dense over the
// vertices and all -1 outside index…reset; a searcher keeps one per worker
// (in its pooled collector) and indexes each anchor once.
type closing struct {
	edge []tin.EdgeID
	n    *tin.Network
	a    tin.VertexID
}

// index records the in-edges of anchor a of n.
func (c *closing) index(n *tin.Network, a tin.VertexID) {
	if len(c.edge) < n.NumVertices() {
		c.edge = make([]tin.EdgeID, n.NumVertices())
		for v := range c.edge {
			c.edge[v] = -1
		}
	}
	c.n, c.a = n, a
	for _, e := range n.InEdges(a) {
		c.edge[n.Edge(e).From] = e
	}
}

// reset undoes index, leaving edge all -1 for the next anchor.
func (c *closing) reset() {
	for _, e := range c.n.InEdges(c.a) {
		c.edge[c.n.Edge(e).From] = -1
	}
	c.n = nil
}

// from returns the edge v→a into the indexed anchor a, if there is one.
func (c *closing) from(v tin.VertexID) (tin.EdgeID, bool) {
	e := c.edge[v]
	return e, e >= 0
}

// anchoredPaths visits the paths of one shape that start at anchor a: the
// 2-hop cycles a→b→a (hops 2, cyclic — the rows of L2), the 3-hop cycles
// a→b→c→a (hops 3, cyclic — L3) or the 2-hop chains a→b→c (hops 2, not
// cyclic — C2), over distinct vertices (a network has no self loops, so
// only c ≠ a needs checking). Paths come in adjacency order — first edge
// ascending, then second edge ascending — which is the row order of the
// tables and the admission order of the relaxed patterns, so GB and PB
// agree exactly. A cycle closes through into, which indexes a's in-edges
// while the walk lasts. It is the package's only walk over these shapes;
// the generic matcher EnumerateGB is independent of it and checks it
// (P1 ≡ C2, P2 ≡ L2, P3 ≡ L3).
func anchoredPaths(n *tin.Network, a tin.VertexID, hops int, cyclic bool, into *closing) iter.Seq[path] {
	return func(yield func(path) bool) {
		if cyclic {
			into.index(n, a)
			defer into.reset()
		}
		for _, e1 := range n.OutEdges(a) {
			b := n.Edge(e1).To
			if cyclic && hops == 2 {
				if e2, ok := into.from(b); ok {
					if !yield(path{v: [3]tin.VertexID{a, b}, e: [3]tin.EdgeID{e1, e2}, nv: 2, ne: 2}) {
						return
					}
				}
				continue
			}
			for _, e2 := range n.OutEdges(b) {
				c := n.Edge(e2).To
				if c == a {
					continue
				}
				p := path{v: [3]tin.VertexID{a, b, c}, e: [3]tin.EdgeID{e1, e2}, nv: 3, ne: 2}
				if cyclic {
					e3, ok := into.from(c)
					if !ok {
						continue
					}
					p.e[2], p.ne = e3, 3
				}
				if !yield(p) {
					return
				}
			}
		}
	}
}
