// Package teg reduces temporal max-flow on an interaction network to a
// classic static max-flow problem via a time-expanded graph, following the
// equivalence of Akrida et al. ("Temporal flows in temporal networks",
// CIAC 2017) that Section 4.2.1 of Kosyfaki et al. invokes: one static node
// per block of a vertex's live arrivals-then-departures (below), infinite
// "holdover" arcs modelling the buffer between consecutive blocks, and one
// finite arc per interaction.
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
// The expansion gives each vertex one node per block of its live events. In
// canonical order a vertex's events form a word over arrivals (A) and
// departures (D); cut into maximal runs A⁺D⁺, each run is one block, so a
// new block opens only at an arrival that follows a departure, and
// consecutive blocks of a vertex are joined by a holdover pair: +Inf
// forward, the buffer carried as the backward residual. This is the
// per-arrival expansion with its holdovers contracted, and the maximum
// flow is the same: inside a block every arrival precedes every departure,
// so a merged node lets an arrival reach only the departures it reached
// over +Inf holdovers before, and every flow of one maps onto the other.
// The first live event of a vertex other than the terminals is an arrival
// and its last a departure, so a vertex that receives everything before it
// sends anything is one node, and an instance whose vertices all do is its
// static graph.
//
// The residual form is a CSR (compressed sparse row) array set: nodes are
// the blocks, numbered vertex by vertex in id order, each vertex's in
// canonical order, then the source (n) and the sink (n+1); node v owns the
// slots [start[v], start[v+1]), and slot a leads to to[a] with residual
// res[a], its reverse being pair[a]. A block's slots are, in this order:
//
//	the holdover back to the vertex's previous block (its residual is the buffer held)
//	the holdover forward to the vertex's next block (+Inf)
//	the reverses of the interactions arriving into it, in canonical order
//	the interactions leaving it, in canonical order
//
// a holdover being absent from the vertex's first or last block. The
// source's slots are its interactions, in canonical order; the sink's are
// the reverses of the interactions into it, and Dinic never scans them.
// The order is fixed because Dinic's choices follow it, and the flows
// served are the ones it gives. Three passes over the live events size
// every array before any is filled: one counts each vertex's blocks, one
// each node's slots, one lays the arcs. MaxFlow takes the event list and
// the arrays from a pool, and clears what it reuses.
package teg

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"flownet/internal/tin"
)

// arrays is the memory of one solve: the instance's event list, the
// engine's three int32 blocks — its vertex scratch, the node-indexed
// arrays, the slots' targets and pairs — and its float64 block, the
// slots' residuals. MaxFlow keeps them in pool between solves; Transfers,
// whose callers are tests, starts from empty ones.
type arrays struct {
	events              []tin.Event
	verts, nodes, links []int32
	res                 []float64
}

var pool = sync.Pool{New: func() any { return new(arrays) }}

// cleared returns (*buf)[:n] zeroed, growing *buf first if it is shorter.
func cleared[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// network is the residual form of a time-expanded graph: node v owns the
// slots [start[v], start[v+1]), slot a leads to node to[a] with residual
// res[a], and pair[a] is its reverse. Nodes 0 … n−1 are blocks, n is the
// source, n+1 the sink.
type network struct {
	start, to, pair    []int32
	res                []float64
	n                  int32
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
// events (g's canonical order, compacted in place), in mem's blocks, and
// returns it with them; if arc is non-nil, arc[i] receives the slot
// carrying the i-th live event. An interaction forwards only quantity
// deposited strictly earlier in the canonical order.
func build(g *tin.Graph, events []tin.Event, arc []int32, mem *arrays) (network, []tin.Event) {
	// cur marks arrivals and departures for live, then holds each vertex's
	// cursor (see depart) for three passes over the live events; first[v]
	// is v's first block, first[NumV] the block count.
	scratch := cleared(&mem.verts, 2*g.NumV+1)
	cur, first := scratch[:g.NumV], scratch[g.NumV:]
	events = live(g, events, cur)
	var n int32
	// ends moves the cursors of ev's endpoints over it and returns the
	// nodes it leaves and enters. A departure is never a vertex's first
	// event: live keeps the arrival that let it through.
	ends := func(ev tin.Event) (tail, head int32) {
		tail, head = n, n+1
		if ev.From != g.Source {
			tail = depart(cur, ev.From)
		}
		if ev.To != g.Sink {
			head = arrive(cur, ev.To)
		}
		return tail, head
	}

	// Count the blocks: with every first block at 0, a cursor ends at its
	// vertex's last.
	resetCursors(cur, first)
	for _, ev := range events {
		ends(ev)
	}
	for v, c := range cur {
		first[v] = n
		n += c>>1 + 1
	}
	first[g.NumV] = n

	// Count the slots per node. start has an entry per node, the terminals
	// included, and one more for the slot count; one block of int32s holds
	// it and the other node-indexed arrays.
	nodes := cleared(&mem.nodes, int(4*n+9))
	net := network{n: n, start: nodes[:n+3], level: nodes[n+3 : 2*n+5], iter: nodes[2*n+5 : 3*n+7], queue: nodes[3*n+7 : 3*n+7 : 4*n+9]}
	start := net.start
	for v := range cur {
		for x := first[v] + 1; x < first[v+1]; x++ {
			start[x-1]++
			start[x]++
		}
	}
	resetCursors(cur, first)
	for _, ev := range events {
		tail, head := ends(ev)
		start[tail]++
		start[head]++
	}
	var slots int32
	for x, k := range start {
		start[x] = slots
		slots += k
	}

	// Lay the arcs: the holdovers first, so they lead each block's slots,
	// then the interactions in canonical order.
	links := cleared(&mem.links, int(2*slots))
	net.to, net.pair, net.res = links[:slots], links[slots:], cleared(&mem.res, int(slots))
	fill := net.iter // each node's next free slot; Dinic resets it per phase
	copy(fill, start)
	link := func(tail, head int32, c float64) int32 {
		a, r := fill[tail], fill[head]
		fill[tail]++
		fill[head]++
		net.to[a], net.res[a], net.pair[a] = head, c, r
		net.to[r], net.pair[r] = tail, a
		return a
	}
	for v := range cur {
		for x := first[v] + 1; x < first[v+1]; x++ {
			link(x-1, x, math.Inf(1))
		}
	}
	resetCursors(cur, first)
	for i, ev := range events {
		tail, head := ends(ev)
		a := link(tail, head, ev.Qty)
		if arc != nil {
			arc[i] = a
		}
	}
	return net, events
}

// resetCursors points every vertex's cursor before its first block. A
// cursor is 2x+1 while the vertex's last event was a departure from block x
// and 2x after an arrival into block x; before its first event it is
// 2(first−1)+1, as if after a departure, so that event opens block first.
func resetCursors(cur, first []int32) {
	for v := range cur {
		cur[v] = 2*first[v] - 1
	}
}

// depart returns the block v sends from.
func depart(cur []int32, v tin.VertexID) int32 {
	c := cur[v]
	cur[v] = c | 1
	return c >> 1
}

// arrive returns the block v receives into, opening the next one after a
// departure.
func arrive(cur []int32, v tin.VertexID) int32 {
	c := cur[v]
	c += c & 1
	cur[v] = c
	return c >> 1
}

// MaxFlow computes the temporal maximum flow of g by building the
// time-expanded network of its live interactions and running Dinic. It
// returns math.Inf(1) when an infinite-capacity source-to-sink channel
// exists (possible only with synthetic infinite-quantity interactions).
func MaxFlow(g *tin.Graph) float64 {
	mem := pool.Get().(*arrays)
	defer pool.Put(mem)
	mem.events = slices.Grow(mem.events[:0], g.NumInteractions())
	for ev := range g.InOrder {
		mem.events = append(mem.events, ev)
	}
	net, _ := build(g, mem.events, nil, mem)
	return net.dinic()
}

// Transfers solves the expanded network and returns, indexed by Ord over
// [0, OrdBound), the quantity the optimal solution moves through each
// interaction (0 at an Ord without one, and on an interaction that is not
// live).
func Transfers(g *tin.Graph) (total float64, byOrd []float64) {
	events := g.Events()
	arc := make([]int32, len(events))
	net, events := build(g, events, arc, new(arrays))
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

// dinic computes the maximum flow (+Inf over an infinite augmenting path)
// with BFS level graphs and DFS blocking flows. Residuals are compared with
// 0, not a tolerance: an augmentation leaves its bottleneck slot at exactly
// 0, so the searches end, and an absolute tolerance would make every
// interaction of smaller quantity carry nothing — an "exact" answer below
// the greedy lower bound on tiny quantities.
func (net *network) dinic() float64 {
	var total float64
	for net.bfs() {
		copy(net.iter, net.start)
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
		for a, end := net.start[v], net.start[v+1]; a < end; a++ {
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
	for end := net.start[v+1]; net.iter[v] < end; net.iter[v]++ {
		a := net.iter[v]
		u := net.to[a]
		if net.res[a] <= 0 || net.level[u] != net.level[v]+1 {
			continue
		}
		if d := net.dfs(u, min(f, net.res[a])); d > 0 {
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
