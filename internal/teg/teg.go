// Package teg reduces temporal max-flow on an interaction network to a
// classic static max-flow problem via a time-expanded graph, following the
// equivalence of Akrida et al. ("Temporal flows in temporal networks",
// CIAC 2017) that Section 4.2.1 of Kosyfaki et al. invokes: one static node
// per (vertex, buffer-state) pair, infinite "holdover" arcs modelling the
// buffer between consecutive events, and one finite arc per interaction.
//
// The reduction yields the same optimum as the LP formulation in
// internal/core and is solved here with Dinic's algorithm; it doubles as an
// independent oracle for certifying the LP solver in tests.
package teg

import (
	"math"

	"flownet/internal/maxflow"
	"flownet/internal/tin"
)

// Expanded is a time-expanded static network built from an interaction
// graph, ready to be solved.
type Expanded struct {
	G    *maxflow.Graph
	S, T int
	// ArcOf maps each interaction (indexed by canonical Ord, dense over
	// [0, OrdBound)) to the static arc that carries it, so per-interaction
	// transfer amounts can be read back after solving. Ords without a live
	// interaction map to -1.
	ArcOf []int32
}

// Build constructs the time-expanded static network of g. Buffer semantics
// follow the canonical interaction order of package tin: an interaction can
// forward only quantity deposited by interactions strictly earlier in that
// order.
//
// All bookkeeping is dense: positions, slot bases and the arc map are flat
// slices indexed by vertex id or canonical Ord — no per-event map lookups
// on this hot path, and the node numbering is deterministic (vertex id
// order) rather than map-iteration order.
func Build(g *tin.Graph) *Expanded {
	events := g.Events()
	numV := g.NumV
	ordBound := g.OrdBound()

	// Assign, per intermediate vertex, a dense index to each incident
	// event (its position in the vertex's own event timeline).
	posOf := make([][2]int32, ordBound) // Ord -> positions at (from, to); -1 if N/A
	countOf := make([]int32, numV)
	for _, ev := range events {
		// An event incident to two intermediate vertices occupies one
		// position in each vertex's own timeline.
		pf, pt := int32(-1), int32(-1)
		if ev.From != g.Source && ev.From != g.Sink {
			pf = countOf[ev.From]
			countOf[ev.From] = pf + 1
		}
		if ev.To != g.Sink && ev.To != g.Source {
			pt = countOf[ev.To]
			countOf[ev.To] = pt + 1
		}
		posOf[ev.Ord] = [2]int32{pf, pt}
	}

	// Static node layout: 0 = super source, 1 = super sink, then per
	// intermediate vertex (in id order) its buffer states 0..count
	// (count+1 nodes).
	slotBase := make([]int32, numV)
	n := int32(2)
	for v := 0; v < numV; v++ {
		slotBase[v] = -1
		if countOf[v] > 0 {
			slotBase[v] = n
			n += countOf[v] + 1
		}
	}
	sg := maxflow.NewGraph(int(n))
	// Holdover arcs between consecutive buffer states.
	for v := 0; v < numV; v++ {
		for i := int32(0); i < countOf[v]; i++ {
			sg.AddArc(int(slotBase[v]+i), int(slotBase[v]+i+1), math.Inf(1))
		}
	}
	arcOf := make([]int32, ordBound)
	for i := range arcOf {
		arcOf[i] = -1
	}
	for _, ev := range events {
		var from, to int32
		p := posOf[ev.Ord]
		switch {
		case ev.From == g.Source:
			from = 0
		default:
			from = slotBase[ev.From] + p[0] // buffer state before this event
		}
		switch {
		case ev.To == g.Sink:
			to = 1
		default:
			to = slotBase[ev.To] + p[1] + 1 // buffer state after this event
		}
		arcOf[ev.Ord] = int32(sg.AddArc(int(from), int(to), ev.Qty))
	}
	return &Expanded{G: sg, S: 0, T: 1, ArcOf: arcOf}
}

// MaxFlow computes the temporal maximum flow of g by building the
// time-expanded network and running Dinic. It returns math.Inf(1) when an
// infinite-capacity source-to-sink channel exists (possible only with
// synthetic infinite-quantity interactions).
func MaxFlow(g *tin.Graph) float64 {
	ex := Build(g)
	return ex.G.Dinic(ex.S, ex.T)
}

// MaxFlowEdmondsKarp is MaxFlow solved with Edmonds–Karp instead of Dinic;
// it exists for cross-validation and for the complexity ablation benches
// (the paper cites the quadratic Edmonds–Karp bound for this reduction).
func MaxFlowEdmondsKarp(g *tin.Graph) float64 {
	ex := Build(g)
	return ex.G.EdmondsKarp(ex.S, ex.T)
}

// Transfers solves the expanded network and returns, indexed by Ord like
// ArcOf, the quantity the optimal solution moves through each interaction.
func Transfers(g *tin.Graph) (total float64, byOrd []float64) {
	ex := Build(g)
	total = ex.G.Dinic(ex.S, ex.T)
	byOrd = make([]float64, len(ex.ArcOf))
	for ord, arc := range ex.ArcOf {
		if arc >= 0 {
			byOrd[ord] = ex.G.Flow(int(arc))
		}
	}
	return total, byOrd
}
