// Package maxflow provides classic static max-flow algorithms (Dinic and
// Edmonds–Karp) on directed graphs with float64 capacities, including
// infinite capacities. They serve as the exact engine behind the
// time-expanded reduction of temporal max flow (internal/teg) and as
// independent cross-checks of the LP solver in tests.
package maxflow

import (
	"fmt"
	"math"
)

// Graph is a static flow network stored as an adjacency list of paired
// forward/residual arcs. Before solving, the per-vertex arc lists are
// flattened into a CSR (offset + flat arc array) so the search loops scan
// contiguous memory; the flatten is lazy and invalidated by AddArc.
type Graph struct {
	n     int
	heads [][]int32 // arc indices per vertex (build representation)
	to    []int32
	cap   []float64 // residual capacity per arc
	orig  []float64 // original capacity, for Flow()

	csrOff []int32 // len n+1; csrArc[csrOff[v]:csrOff[v+1]] are v's arcs
	csrArc []int32
	dirty  bool // arcs added since the last flatten
}

// NewGraph creates a flow network with n vertices and no arcs.
func NewGraph(n int) *Graph {
	return &Graph{n: n, heads: make([][]int32, n)}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumArcs returns the number of forward arcs added.
func (g *Graph) NumArcs() int { return len(g.to) / 2 }

// AddArc inserts a directed arc from → to with the given capacity (which
// may be math.Inf(1)) and returns its id. A zero-capacity reverse arc is
// created automatically.
func (g *Graph) AddArc(from, to int, capacity float64) int {
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("maxflow: invalid capacity %g", capacity))
	}
	if from < 0 || from >= g.n || to < 0 || to >= g.n || from == to {
		panic(fmt.Sprintf("maxflow: invalid arc %d->%d (n=%d)", from, to, g.n))
	}
	id := len(g.to)
	g.to = append(g.to, int32(to), int32(from))
	g.cap = append(g.cap, capacity, 0)
	g.orig = append(g.orig, capacity, 0)
	g.heads[from] = append(g.heads[from], int32(id))
	g.heads[to] = append(g.heads[to], int32(id+1))
	g.dirty = true
	return id
}

// flatten compacts the jagged per-vertex arc lists into the CSR arrays,
// preserving per-vertex insertion order so solver tie-breaking (and hence
// every per-arc flow assignment) is identical to iteration over heads.
func (g *Graph) flatten() {
	if !g.dirty && g.csrOff != nil {
		return
	}
	if g.csrOff == nil || len(g.csrOff) != g.n+1 {
		g.csrOff = make([]int32, g.n+1)
	} else {
		for i := range g.csrOff {
			g.csrOff[i] = 0
		}
	}
	for v := 0; v < g.n; v++ {
		g.csrOff[v+1] = g.csrOff[v] + int32(len(g.heads[v]))
	}
	if cap(g.csrArc) < len(g.to) {
		g.csrArc = make([]int32, len(g.to))
	} else {
		g.csrArc = g.csrArc[:len(g.to)]
	}
	for v := 0; v < g.n; v++ {
		copy(g.csrArc[g.csrOff[v]:g.csrOff[v+1]], g.heads[v])
	}
	g.dirty = false
}

// Flow returns the flow currently routed through the forward arc id, i.e.
// original capacity minus residual.
func (g *Graph) Flow(id int) float64 {
	if math.IsInf(g.orig[id], 1) {
		return g.cap[id^1] // reverse residual equals pushed flow
	}
	return g.orig[id] - g.cap[id]
}

// Reset restores all residual capacities to the original capacities so the
// same graph can be solved again.
func (g *Graph) Reset() {
	copy(g.cap, g.orig)
}

// Dinic computes the maximum flow from s to t using Dinic's algorithm with
// BFS level graphs and DFS blocking flows. It returns math.Inf(1) if an
// infinite-capacity augmenting path exists.
//
// Residual capacities are compared with 0, not with a tolerance: every
// augmentation subtracts its bottleneck from the arc that set it and leaves
// that arc at exactly 0, so the searches terminate without one, and an
// absolute tolerance would make every arc of smaller capacity carry nothing
// — an "exact" answer below the greedy lower bound on tiny quantities.
func (g *Graph) Dinic(s, t int) float64 {
	if s == t {
		panic("maxflow: source equals sink")
	}
	g.flatten()
	level := make([]int32, g.n)
	iter := make([]int32, g.n)
	queue := make([]int32, 0, g.n)
	var total float64

	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		queue = queue[:0]
		queue = append(queue, int32(s))
		level[s] = 0
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for _, a := range g.csrArc[g.csrOff[v]:g.csrOff[v+1]] {
				u := g.to[a]
				if g.cap[a] > 0 && level[u] < 0 {
					level[u] = level[v] + 1
					queue = append(queue, u)
				}
			}
		}
		return level[t] >= 0
	}

	var dfs func(v int, f float64) float64
	dfs = func(v int, f float64) float64 {
		if v == t {
			return f
		}
		for ; iter[v] < g.csrOff[v+1]; iter[v]++ {
			a := g.csrArc[iter[v]]
			u := g.to[a]
			if g.cap[a] <= 0 || level[u] != level[v]+1 {
				continue
			}
			d := dfs(int(u), math.Min(f, g.cap[a]))
			if d > 0 {
				if !math.IsInf(d, 1) {
					g.cap[a] -= d
					g.cap[a^1] += d
				} else {
					// Infinite augmenting path: the max flow is infinite.
					g.cap[a^1] = math.Inf(1)
				}
				return d
			}
		}
		return 0
	}

	for bfs() {
		copy(iter, g.csrOff[:g.n])
		for {
			f := dfs(s, math.Inf(1))
			if f <= 0 {
				break
			}
			total += f
			if math.IsInf(f, 1) {
				return math.Inf(1)
			}
		}
	}
	return total
}

// EdmondsKarp computes the maximum flow from s to t with BFS augmenting
// paths. Slower than Dinic; kept as an independent implementation for
// cross-validation.
func (g *Graph) EdmondsKarp(s, t int) float64 {
	if s == t {
		panic("maxflow: source equals sink")
	}
	g.flatten()
	parent := make([]int32, g.n) // arc used to reach each vertex
	queue := make([]int32, 0, g.n)
	var total float64
	for {
		for i := range parent {
			parent[i] = -1
		}
		queue = queue[:0]
		queue = append(queue, int32(s))
		found := false
		for qi := 0; qi < len(queue) && !found; qi++ {
			v := queue[qi]
			for _, a := range g.csrArc[g.csrOff[v]:g.csrOff[v+1]] {
				u := g.to[a]
				if g.cap[a] > 0 && parent[u] < 0 && int(u) != s {
					parent[u] = a
					if int(u) == t {
						found = true
						break
					}
					queue = append(queue, u)
				}
			}
		}
		if !found {
			return total
		}
		// Bottleneck along the path.
		f := math.Inf(1)
		for v := int32(t); int(v) != s; {
			a := parent[v]
			f = math.Min(f, g.cap[a])
			v = g.to[a^1]
		}
		if math.IsInf(f, 1) {
			return math.Inf(1)
		}
		for v := int32(t); int(v) != s; {
			a := parent[v]
			g.cap[a] -= f
			g.cap[a^1] += f
			v = g.to[a^1]
		}
		total += f
	}
}
