package pattern

import (
	"fmt"
	"sort"

	"flownet/internal/tin"
)

// Instance is one match of a rigid pattern: V[i] is the graph vertex the
// pattern vertex i maps to, EdgeIDs[j] is the network edge realizing
// pattern edge j.
type Instance struct {
	V       []tin.VertexID
	EdgeIDs []tin.EdgeID
}

// Clone returns a deep copy of the instance. EnumerateGB reuses the
// *Instance it passes to its callback, so a copy is required whenever an
// instance outlives the callback — e.g. when it is handed to a worker pool.
func (in *Instance) Clone() *Instance {
	return &Instance{
		V:       append([]tin.VertexID(nil), in.V...),
		EdgeIDs: append([]tin.EdgeID(nil), in.EdgeIDs...),
	}
}

// matchPlan is a precomputed vertex placement order for backtracking: each
// placed vertex (after the first) is adjacent in the pattern to an earlier
// one, so candidates come from a neighbor list rather than the whole graph.
type matchPlan struct {
	order []int // pattern vertices in placement order
	// anchorEdge[i] (i ≥ 1) is the pattern-edge index used to generate
	// candidates for order[i]; its other endpoint precedes order[i].
	anchorEdge []int
	// checkEdges[i] lists pattern-edge indices whose endpoints are both
	// placed once order[i] is, excluding anchorEdge[i].
	checkEdges [][]int
	// closes is set when a check edge enters the source: the matcher then
	// indexes each anchor's in-edges (closing) and reads such edges there.
	closes bool
}

func buildPlan(p *Pattern) (*matchPlan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	placed := make([]bool, p.NV)
	plan := &matchPlan{
		order:      []int{p.Source},
		anchorEdge: []int{-1},
	}
	placed[p.Source] = true
	used := make([]bool, len(p.Edges))
	for len(plan.order) < p.NV {
		found := -1
		for j, e := range p.Edges {
			if used[j] {
				continue
			}
			if placed[e[0]] != placed[e[1]] {
				found = j
				break
			}
		}
		if found == -1 {
			return nil, fmt.Errorf("pattern %s: not connected", p.Name)
		}
		e := p.Edges[found]
		next := e[0]
		if placed[e[0]] {
			next = e[1]
		}
		placed[next] = true
		used[found] = true
		plan.order = append(plan.order, next)
		plan.anchorEdge = append(plan.anchorEdge, found)
	}
	// Edge-verification schedule: an edge is checked at the step where its
	// later endpoint is placed.
	pos := make([]int, p.NV)
	for i, v := range plan.order {
		pos[v] = i
	}
	plan.checkEdges = make([][]int, p.NV)
	for j, e := range p.Edges {
		at := max(pos[e[0]], pos[e[1]])
		if j != plan.anchorEdge[at] {
			plan.checkEdges[at] = append(plan.checkEdges[at], j)
			plan.closes = plan.closes || e[1] == p.Source
		}
	}
	return plan, nil
}

// EnumerateGB enumerates all instances of a rigid pattern in the network by
// graph browsing (Section 5.1): pattern vertices are instantiated in a
// connectivity-respecting order, candidates are drawn from adjacency lists,
// and every structural and distinctness constraint is checked as soon as
// its operands are placed. Instances come anchor by anchor, in ascending
// order of the graph vertex the source maps to (matcher.anchor enumerates
// one anchor). fn is called for each instance; returning false stops the
// enumeration. The Instance passed to fn is reused across calls — copy it
// if it must be retained.
func EnumerateGB(n *tin.Network, p *Pattern, fn func(*Instance) bool) error {
	if p.Kind != KindRigid {
		return fmt.Errorf("pattern %s: EnumerateGB requires a rigid pattern", p.Name)
	}
	plan, err := buildPlan(p)
	if err != nil {
		return err
	}
	m := matcher{n: n, p: p, plan: plan, fn: fn}
	m.inst = Instance{V: make([]tin.VertexID, p.NV), EdgeIDs: make([]tin.EdgeID, len(p.Edges))}
	for v := 0; v < n.NumVertices(); v++ {
		if !m.anchor(tin.VertexID(v)) {
			break
		}
	}
	return nil
}

// matcher is the backtracking state of one enumeration. The plan is shared
// read-only by every matcher of a search; the instance under construction
// and the closing index are the matcher's own, so goroutines enumerating
// concurrently need one matcher each.
type matcher struct {
	n    *tin.Network
	p    *Pattern
	plan *matchPlan
	inst Instance // V and EdgeIDs sized to the pattern
	fn   func(*Instance) bool
	into closing // the anchor's in-edges, when plan.closes
}

// anchor hands fn the instances whose source maps to graph vertex a, in
// EnumerateGB's order, and reports whether fn let the enumeration go on.
// Vertices are unlabeled, so there is no pruning beyond degree: an anchor
// needs an outgoing and, for a cyclic pattern, an incoming edge.
func (m *matcher) anchor(a tin.VertexID) bool {
	if m.n.OutDegree(a) == 0 || m.p.Cyclic() && m.n.InDegree(a) == 0 {
		return true
	}
	m.inst.V[m.p.Source] = a
	if !m.plan.closes {
		return m.rec(1)
	}
	m.into.index(m.n, a)
	more := m.rec(1)
	m.into.reset()
	return more
}

// rec places the pattern vertex of the given step and recurses, and
// reports whether fn let the enumeration go on.
func (m *matcher) rec(step int) bool {
	n, p, plan, inst := m.n, m.p, m.plan, &m.inst
	if step == p.NV {
		for _, lp := range p.LessPairs {
			if inst.V[lp[0]] >= inst.V[lp[1]] {
				return true
			}
		}
		return m.fn(inst)
	}
	pv := plan.order[step]
	ae := plan.anchorEdge[step]
	e := p.Edges[ae]
	var candidates []tin.EdgeID
	forward := e[0] != pv // anchor edge goes placed -> pv
	if forward {
		candidates = n.OutEdges(inst.V[e[0]])
	} else {
		candidates = n.InEdges(inst.V[e[1]])
	}
next:
	for _, eid := range candidates {
		ne := n.Edge(eid)
		cand := ne.From
		if forward {
			cand = ne.To
		}
		// Distinctness: a scan of the at most NV-1 vertices placed so far,
		// no set to maintain.
		for _, placed := range plan.order[:step] {
			if inst.V[placed] == cand {
				continue next
			}
		}
		inst.V[pv] = cand
		inst.EdgeIDs[ae] = eid
		for _, j := range plan.checkEdges[step] {
			ce := p.Edges[j]
			var id tin.EdgeID
			var exists bool
			if ce[1] == p.Source {
				id, exists = m.into.from(inst.V[ce[0]])
			} else {
				id, exists = n.HasEdge(inst.V[ce[0]], inst.V[ce[1]])
			}
			if !exists {
				continue next
			}
			inst.EdgeIDs[j] = id
		}
		if !m.rec(step + 1) {
			return false
		}
	}
	return true
}

// CollectGB gathers up to limit instances (0 = no limit) as copies, sorted
// deterministically. Intended for tests and small workloads.
func CollectGB(n *tin.Network, p *Pattern, limit int) ([]Instance, error) {
	var out []Instance
	err := EnumerateGB(n, p, func(in *Instance) bool {
		out = append(out, *in.Clone())
		return limit == 0 || len(out) < limit
	})
	if err != nil {
		return nil, err
	}
	sortInstances(out)
	return out, nil
}

func sortInstances(ins []Instance) {
	sort.Slice(ins, func(a, b int) bool {
		va, vb := ins[a].V, ins[b].V
		for i := range va {
			if va[i] != vb[i] {
				return va[i] < vb[i]
			}
		}
		return false
	})
}
