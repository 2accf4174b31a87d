package core

import (
	"math"

	"flownet/internal/tin"
)

// referenceMaxFlow is the time-expanded reduction of Akrida et al.
// ("Temporal flows in temporal networks", CIAC 2017) written out in its
// plainest form and solved with Edmonds–Karp: an oracle for internal/teg
// that shares the definition and nothing else. Each arrival at a vertex
// other than the sink opens a new buffer state of that vertex, joined to
// the previous one by an uncapacitated holdover arc; an interaction runs
// from its sender's current state to the state its arrival opens, so it can
// forward only what arrived strictly earlier in the canonical order.
func referenceMaxFlow(g *tin.Graph) float64 {
	type arc struct {
		to, rev int // rev is the index of the reverse arc in adj[to]
		cap     float64
	}
	var adj [][]arc
	node := func() int {
		adj = append(adj, nil)
		return len(adj) - 1
	}
	addArc := func(from, to int, c float64) {
		adj[from] = append(adj[from], arc{to: to, rev: len(adj[to]), cap: c})
		adj[to] = append(adj[to], arc{to: from, rev: len(adj[from]) - 1})
	}
	src, sink := node(), node()
	state := make([]int, g.NumV) // each vertex's current buffer state; -1 before any
	for v := range state {
		state[v] = -1
	}
	state[g.Source], state[g.Sink] = src, sink
	for _, ev := range g.Events() {
		if state[ev.From] < 0 {
			state[ev.From] = node()
		}
		to := sink
		if ev.To != g.Sink {
			to = node()
			if prev := state[ev.To]; prev >= 0 {
				addArc(prev, to, math.Inf(1))
			}
			state[ev.To] = to
		}
		addArc(state[ev.From], to, ev.Qty)
	}

	type hop struct{ from, arc int }
	var total float64
	for {
		prev := make([]hop, len(adj))
		seen := make([]bool, len(adj))
		seen[src] = true
		for queue := []int{src}; len(queue) > 0 && !seen[sink]; queue = queue[1:] {
			for i, a := range adj[queue[0]] {
				if a.cap > 0 && !seen[a.to] {
					seen[a.to], prev[a.to] = true, hop{queue[0], i}
					queue = append(queue, a.to)
				}
			}
		}
		if !seen[sink] {
			return total
		}
		push := math.Inf(1)
		for v := sink; v != src; v = prev[v].from {
			push = math.Min(push, adj[prev[v].from][prev[v].arc].cap)
		}
		if math.IsInf(push, 1) {
			return push
		}
		for v := sink; v != src; v = prev[v].from {
			a := &adj[prev[v].from][prev[v].arc]
			a.cap -= push
			adj[a.to][a.rev].cap += push
		}
		total += push
	}
}
