// Package teg reduces temporal max-flow on an interaction network to a
// classic static max-flow problem via a time-expanded graph, following the
// equivalence of Akrida et al. ("Temporal flows in temporal networks",
// CIAC 2017) that Section 4.2.1 of Kosyfaki et al. invokes: one static node
// per (vertex, buffer-state) pair, infinite "holdover" arcs modelling the
// buffer between consecutive events, and one finite arc per interaction.
// It answers every class-C residue and every cyclic instance (core.Solve)
// with Dinic's algorithm over the network's residual form.
//
// Only live interactions are laid out. An interaction is live when its tail
// is the source or has received a live interaction strictly earlier in the
// canonical order (by Ord, not Time), and its head is the sink or sends a
// live interaction strictly later. Quantities are not consulted. A forward
// scan in canonical order (earliest arrival) and a backward scan over its
// survivors (latest useful departure) find them: a survivor of both still
// has the arrival that kept it forward, since that arrival precedes a kept
// departure, so one pass each way is the fixpoint. Every other interaction
// lies on no source-to-sink path of the expansion and carries nothing in
// any feasible flow; on a pair query it is nearly all of the instance.
// internal/tin applies the same rule per edge run, before any copy, when a
// pair query asks for its residue (tin.Query.Residue): a served cyclic pair
// arrives here with its live interactions only, which this prune keeps
// whole, and solves to the bits of the whole instance (FuzzPairResidue).
//
// The residual form is kept as flat arrays: an intermediate vertex with k
// incident live interactions has k+1 buffer states, numbered vertex by
// vertex in id order, each vertex's in canonical order, and buffer state x
// owns the residual slots 4x … 4x+3:
//
//	4x    holdover back to x−1 (its residual is the buffer held)
//	4x+1  holdover forward to x+1 (+Inf)
//	4x+2  the reverse of the interaction that arrived into x
//	4x+3  the interaction leaving x
//
// A slot the state lacks is absent (to −1, residual 0). The source's slots
// follow, one per interaction it sends, in canonical order; then the
// reverse slots of the interactions into the sink, which is never scanned.
// The order is fixed because Dinic's choices follow it: it is each node's
// arc order in an adjacency list that adds the holdovers, then the
// interactions in canonical order, and the flows served are that list's.
package teg

import (
	"fmt"
	"math"

	"flownet/internal/tin"
)

// network is the residual form of a time-expanded graph: slot a leads to
// node to[a] with residual res[a], and pair[a] is its reverse. Nodes
// 0 … n−1 are buffer states, n is the source, n+1 the sink.
type network struct {
	to, pair           []int32
	res                []float64
	n, srcEnd          int32 // the source's slots are [4n, srcEnd)
	level, iter, queue []int32
}

// live checks that no event enters the source or leaves the sink, then
// compacts events (g's canonical order) in place to the live ones and
// returns them. mark is zeroed scratch of g.NumV entries; it is left dirty.
func live(g *tin.Graph, events []tin.Event, mark []int32) []tin.Event {
	// Forward, over every event: mark[v] = 1 once v has received a kept
	// interaction.
	kept := events[:0]
	for _, ev := range events {
		if ev.To == g.Source || ev.From == g.Sink {
			panic(fmt.Sprintf("teg: interaction %d->%d enters the source or leaves the sink", ev.From, ev.To))
		}
		if ev.From == g.Source || mark[ev.From] != 0 {
			mark[ev.To] = 1
			kept = append(kept, ev)
		}
	}
	// Backward over the survivors: mark[v] = 2 once v sends a kept one; the
	// kept interactions are packed at the end, still in canonical order.
	i := len(kept)
	for j := len(kept) - 1; j >= 0; j-- {
		if ev := kept[j]; ev.To == g.Sink || mark[ev.To] == 2 {
			mark[ev.From] = 2
			i--
			kept[i] = ev
		}
	}
	return kept[i:]
}

// build lays out the time-expanded network of g's live events, taken from
// events (g's canonical order, compacted in place), and returns it with
// them; if arc is non-nil, arc[i] receives the slot carrying the i-th live
// event. An interaction forwards only quantity deposited strictly earlier
// in the canonical order.
func build(g *tin.Graph, events []tin.Event, arc []int32) (*network, []tin.Event) {
	// cur marks arrivals and departures for live, then counts v's incident
	// interactions, then becomes v's cursor: the buffer state v is in
	// before its next interaction.
	cur := make([]int32, g.NumV)
	events = live(g, events, cur)
	clear(cur)
	for _, ev := range events {
		cur[ev.From]++
		cur[ev.To]++
	}
	fromSrc, intoSink := cur[g.Source], cur[g.Sink]
	cur[g.Source], cur[g.Sink] = 0, 0 // the terminals have no buffer states
	var n int32
	for v, k := range cur {
		cur[v] = n
		if k > 0 {
			n += k + 1
		}
	}
	slots := 4*n + fromSrc + intoSink
	net := &network{to: make([]int32, slots), pair: make([]int32, slots), res: make([]float64, slots), n: n, srcEnd: 4*n + fromSrc}
	for a := range net.to {
		net.to[a] = -1
	}
	link := func(a, r, tail, head int32, c float64) {
		net.to[a], net.res[a], net.pair[a] = head, c, r
		net.to[r], net.pair[r] = tail, a
	}
	// advance moves v over a holdover to its next state; it returns the last.
	advance := func(v tin.VertexID) int32 {
		x := cur[v]
		cur[v]++
		link(4*x+1, 4*x+4, x, x+1, math.Inf(1))
		return x
	}
	nextSrc, nextSink := 4*n, net.srcEnd
	for i, ev := range events {
		a, tail := nextSrc, n
		if ev.From == g.Source {
			nextSrc++
		} else {
			tail = advance(ev.From)
			a = 4*tail + 3
		}
		r, head := nextSink, n+1
		if ev.To == g.Sink {
			nextSink++
		} else {
			head = advance(ev.To) + 1
			r = 4*head + 2
		}
		link(a, r, tail, head, ev.Qty)
		if arc != nil {
			arc[i] = a
		}
	}
	return net, events
}

// MaxFlow computes the temporal maximum flow of g by building the
// time-expanded network of its live interactions and running Dinic. It
// returns math.Inf(1) when an infinite-capacity source-to-sink channel
// exists (possible only with synthetic infinite-quantity interactions).
func MaxFlow(g *tin.Graph) float64 {
	net, _ := build(g, g.Events(), nil)
	return net.dinic()
}

// Transfers solves the expanded network and returns, indexed by Ord over
// [0, OrdBound), the quantity the optimal solution moves through each
// interaction (0 at an Ord without one, and on an interaction that is not
// live).
func Transfers(g *tin.Graph) (total float64, byOrd []float64) {
	events := g.Events()
	arc := make([]int32, len(events))
	net, events := build(g, events, arc)
	total = net.dinic()
	byOrd = make([]float64, g.OrdBound())
	for i, ev := range events {
		if a := arc[i]; math.IsInf(ev.Qty, 1) {
			byOrd[ev.Ord] = net.res[net.pair[a]] // +Inf stays +Inf; the reverse holds the flow
		} else {
			byOrd[ev.Ord] = ev.Qty - net.res[a]
		}
	}
	return total, byOrd
}

// end is one past the last slot of node v, a buffer state or the source.
func (net *network) end(v int32) int32 {
	if v < net.n {
		return 4*v + 4
	}
	return net.srcEnd
}

// dinic computes the maximum flow (+Inf over an infinite augmenting path)
// with BFS level graphs and DFS blocking flows. Residuals are compared with
// 0, not a tolerance: an augmentation leaves its bottleneck slot at exactly
// 0, so the searches end, and an absolute tolerance would make every
// interaction of smaller quantity carry nothing — an "exact" answer below
// the greedy lower bound on tiny quantities.
func (net *network) dinic() float64 {
	nodes := net.n + 2
	net.level, net.iter, net.queue = make([]int32, nodes), make([]int32, nodes), make([]int32, 0, nodes)
	var total float64
	for net.bfs() {
		for v := range net.iter {
			net.iter[v] = 4 * int32(v)
		}
		for {
			f := net.dfs(net.n, math.Inf(1))
			if f <= 0 {
				break
			}
			total += f
			if math.IsInf(f, 1) {
				return f
			}
		}
	}
	return total
}

// bfs levels the nodes by residual distance from the source and reports
// whether the sink is reachable. It stops at the sink: no augmenting path
// of the phase runs through a node no closer than the sink.
func (net *network) bfs() bool {
	level, sink := net.level, net.n+1
	for v := range level {
		level[v] = -1
	}
	level[net.n] = 0
	queue := append(net.queue[:0], net.n)
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for a, end := 4*v, net.end(v); a < end; a++ {
			if u := net.to[a]; net.res[a] > 0 && level[u] < 0 {
				level[u] = level[v] + 1
				if u == sink {
					return true
				}
				queue = append(queue, u)
			}
		}
	}
	return false
}

// dfs pushes up to f from node v to the sink along the level graph and
// returns what it pushed.
func (net *network) dfs(v int32, f float64) float64 {
	if v == net.n+1 {
		return f
	}
	for end := net.end(v); net.iter[v] < end; net.iter[v]++ {
		a := net.iter[v]
		u := net.to[a]
		if net.res[a] <= 0 || net.level[u] != net.level[v]+1 {
			continue
		}
		if d := net.dfs(u, math.Min(f, net.res[a])); d > 0 {
			if math.IsInf(d, 1) {
				net.res[net.pair[a]] = d
			} else {
				net.res[a] -= d
				net.res[net.pair[a]] += d
			}
			return d
		}
	}
	return 0
}
