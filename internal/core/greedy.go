// Package core implements the flow-computation algorithms of Kosyfaki et
// al., "Flow Computation in Temporal Interaction Networks" (ICDE 2021),
// each stated once:
//
//   - Greedy flow computation (Section 4.1): scan, a single pass over the
//     interactions in canonical order, with Greedy, GreedyArrivals and
//     GreedyTrace as its visitors.
//   - The greedy-solubility test (Lemmas 1 and 2, Section 4.2.2).
//   - The greedy scan of an instance given by position, as runs between
//     positions (ScanRuns), with its chain case, the scan along a single
//     path with its arrival sequence (PathArrivals; Lemmas 1 and 3) — the
//     one positional scan, used by graph simplification here and by the
//     path tables, the relaxed searches and the decomposable rigid
//     patterns of internal/pattern.
//   - DAG preprocessing (Algorithm 1, Section 4.2.3).
//   - Graph simplification (Algorithm 2, Section 4.2.4).
//   - The LP formulation of temporal maximum flow (Section 4.2.1), solved
//     (by solveLP alone) with the bounded-variable simplex of internal/lp:
//     the paper's baseline and the oracle of the tests, never served.
//   - The Pre and PreSim pipelines evaluated in Section 6.2, DAG-only as in
//     the paper, with a pluggable exact engine (LP, or the time-expanded
//     reduction of internal/teg).
//   - Solve, the one answer path for any flow instance: PreSim's reductions
//     on a DAG, the time-expanded reduction on a class-C residue and on a
//     cyclic instance; and SolveExtraction, the same answer to an
//     extraction in the smallest form it came in (a class-A seed's runs, a
//     cyclic pair's residue, a graph it owns).
//
// All algorithms interpret "before" via the canonical interaction order
// defined by package tin, so greedy, LP and the time-expanded reduction
// agree exactly, including on inputs with duplicate timestamps.
//
// # Concurrency
//
// This package has no package-level mutable variables, and every
// algorithm works exclusively on its argument graph. The only state shared
// between calls is internal/teg's pool of engine arrays, from which each
// solve takes arrays no other call holds, clears them and gives them back
// when it returns (the LP builds a fresh problem per call). Concurrent
// calls on distinct graphs are therefore always safe — this is what
// BatchSeedsContext and the parallel pattern searches rely on. Solve
// reads; SolveExtraction owns. The non-mutating entry points (Greedy,
// PathArrivals, ScanRuns, GreedySoluble, Pre, PreSim, Solve, MaxFlowLP)
// are additionally safe to call concurrently on the same graph: they treat
// the input as read-only and clone it before any modification.
// SolveExtraction reduces the extraction's graph in place, and Preprocess
// and Simplify mutate their argument: none may run concurrently with any
// other use of the same graph.
package core

import (
	"math"

	"flownet/internal/tin"
)

// scan is the greedy scan of Definition 5: interactions are processed in
// canonical order and each transfers the maximum possible quantity
// min(q, B_v) from its origin's buffer. It returns the quantity buffered at
// the sink after the last interaction. visit, when non-nil, sees every
// interaction once processed, with the quantity it moved (0 if none) and
// the live buffer vector, which it must not keep. The order is the
// graph's own Ord index (tin.Graph.InOrder): nothing is collected, placed
// or sorted.
func scan(g *tin.Graph, visit func(ev tin.Event, q float64, buf []float64)) float64 {
	buf := make([]float64, g.NumV)
	buf[g.Source] = math.Inf(1)
	for ev := range g.InOrder {
		q := min(ev.Qty, buf[ev.From])
		if q > 0 {
			if !math.IsInf(buf[ev.From], 1) {
				buf[ev.From] -= q
			}
			buf[ev.To] += q
		}
		if visit != nil {
			visit(ev, q, buf)
		}
	}
	return buf[g.Sink]
}

// Greedy computes the greedy flow of g (Definition 5).
//
// Greedy runs in O(n + m) for n interactions on m edges — the paper's
// single scan, a walk of the Ord index the graph's builder handed over,
// not a sort — and is exact for the maximum-flow problem whenever
// GreedySoluble reports true.
func Greedy(g *tin.Graph) float64 { return scan(g, nil) }

// Arrival is one positive greedy transfer into a designated vertex: the
// triggering interaction's time and canonical position, with the quantity
// actually moved.
type Arrival = tin.Interaction

// GreedyArrivals runs the greedy scan and returns the total flow together
// with the sequence of positive arrivals at the sink: one entry per
// interaction entering the sink that transferred a positive quantity, with
// Qty set to the transferred amount and Time/Ord inherited from the
// triggering interaction. Per Lemma 3 this sequence fully characterizes the
// quantity available at the sink at every time, which is what graph
// simplification and the pattern path tables store.
func GreedyArrivals(g *tin.Graph) (float64, []Arrival) {
	var arrivals []Arrival
	flow := scan(g, func(ev tin.Event, q float64, _ []float64) {
		if q > 0 && ev.To == g.Sink {
			arrivals = append(arrivals, Arrival{Time: ev.Time, Qty: q, Ord: ev.Ord})
		}
	})
	return flow, arrivals
}

// ScanRuns is the greedy scan of Definition 5 over an instance given by
// position instead of as a graph: run i moves the interactions of seqs[i]
// (sorted by Ord, all drawn from one container, so no two runs share an
// Ord) from position from[i] to position to[i]. Position source holds an
// infinite buffer; every other position starts empty. The scan merges the
// runs by their heads — a k-pointer merge, meant for the few runs of a
// path, a pattern instance or a class-A seed: each pick of the least head
// moves that run's whole stretch before the next least, so the cost is
// O(n + s·k) for n interactions in k runs cut into s stretches — and each
// interaction moves min(q, B) exactly as scan does on the instance's graph,
// in the same order, so the flow into sink is the same bits. If arrivals is
// non-nil, every positive transfer into sink is appended to it in the form
// GreedyArrivals reports (with the container's Ords).
//
// It is the package's one positional scan: PathArrivals is its chain case,
// and internal/pattern hands it a decomposable pattern instance (Lemma 2),
// whose positions are the pattern's vertices, and the arrival sequences of
// an instance's petals (Lemma 3). The scratch of a short instance stays on
// the stack; runs and positions are not capped.
func ScanRuns(seqs [][]tin.Interaction, from, to []int, source, sink int, arrivals *[]Arrival) float64 {
	npos := max(source, sink) + 1
	for i := range seqs {
		npos = max(npos, from[i]+1, to[i]+1)
	}
	var bufStack [8]float64
	var nextStack [8]int
	var headStack [8]int64
	buf := stackOr(bufStack[:], npos)
	next := stackOr(nextStack[:], len(seqs)) // first unread interaction of each run
	head := stackOr(headStack[:], len(seqs)) // its Ord; math.MaxInt64 once the run is read
	for i, seq := range seqs {
		head[i] = math.MaxInt64
		if len(seq) > 0 {
			head[i] = seq[0].Ord
		}
	}
	buf[source] = math.Inf(1)
	for {
		// Run r holds the earliest unread interaction, and its interactions
		// before the least other head (second) come next; Ords are distinct.
		r, least, second := -1, int64(math.MaxInt64), int64(math.MaxInt64)
		for i, h := range head {
			if h < least {
				r, least, second = i, h, least
			} else if h < second {
				second = h
			}
		}
		if r < 0 {
			return buf[sink]
		}
		seq, f, t := seqs[r], from[r], to[r]
		j := next[r]
		for ; j < len(seq) && seq[j].Ord < second; j++ {
			ia := seq[j]
			q := min(ia.Qty, buf[f])
			if q <= 0 {
				continue
			}
			if !math.IsInf(buf[f], 1) {
				buf[f] -= q
			}
			buf[t] += q
			if t == sink && arrivals != nil {
				*arrivals = append(*arrivals, Arrival{Time: ia.Time, Qty: q, Ord: ia.Ord})
			}
		}
		next[r] = j
		head[r] = math.MaxInt64
		if j < len(seq) {
			head[r] = seq[j].Ord
		}
	}
}

// stackOr returns stack[:n] when n fits, a fresh zeroed slice otherwise:
// callers pass a zeroed local array, which stays on their stack.
func stackOr[T any](stack []T, n int) []T {
	if n <= len(stack) {
		return stack[:n]
	}
	return make([]T, n)
}

// PathArrivals runs the greedy scan along a path given as the interaction
// sequences of its edges, seqs[i] belonging to the i-th edge (each sorted by
// Ord, all drawn from one container), with an infinite buffer in front of
// the first edge. It returns the total flow into the path's end together
// with the arrival sequence there, in the form GreedyArrivals reports.
//
// It is ScanRuns's chain case: position i feeds seqs[i] and is fed by
// seqs[i-1], so a cyclic path (last vertex = first vertex) needs no
// splitting — position 0 acts as the source copy, position len(seqs) as the
// sink copy. By Lemma 1 the flow is the path's maximum flow, and by Lemma 3
// the arrival sequence is an exact summary of the path: it is what
// Simplify substitutes for a source chain and what the pattern path tables
// of Section 5.2 store.
func PathArrivals(seqs [][]tin.Interaction) (float64, []Arrival) {
	k := len(seqs)
	var fromStack, toStack [8]int
	from, to := stackOr(fromStack[:], k), stackOr(toStack[:], k)
	for i := range k {
		from[i], to[i] = i, i+1
	}
	var arrivals []Arrival
	flow := ScanRuns(seqs, from, to, 0, k, &arrivals)
	return flow, arrivals
}

// GreedyTrace reproduces the paper's Table 2: it returns the buffer vector
// after each processed interaction (the source buffer is +inf throughout).
// Row i corresponds to the i-th interaction in canonical order. Intended
// for examples, documentation and tests; use Greedy for computation.
func GreedyTrace(g *tin.Graph) [][]float64 {
	var rows [][]float64
	scan(g, func(_ tin.Event, _ float64, buf []float64) {
		rows = append(rows, append([]float64(nil), buf...))
	})
	return rows
}

// GreedySoluble implements the O(V) check of Lemma 2: the greedy algorithm
// computes the maximum flow if every live vertex other than the source and
// the sink has exactly one live outgoing edge. (Chains, Lemma 1, are the
// special case where in-degrees are also one.)
//
// The condition is evaluated on the live subgraph, so it can be re-applied
// after preprocessing has removed edges (as the Pre pipeline does).
func GreedySoluble(g *tin.Graph) bool {
	for v := 0; v < g.NumV; v++ {
		vid := tin.VertexID(v)
		if !g.VertexAlive(vid) || vid == g.Source || vid == g.Sink {
			continue
		}
		if g.OutDegree(vid) != 1 {
			return false
		}
	}
	return true
}

// IsChain reports whether the live subgraph is a chain (Lemma 1): a single
// path from source to sink where every inner vertex has exactly one live
// incoming and one live outgoing edge.
func IsChain(g *tin.Graph) bool {
	if g.OutDegree(g.Source) != 1 || g.InDegree(g.Sink) != 1 {
		return false
	}
	v := g.Source
	visited := 1
	for v != g.Sink {
		if v != g.Source && (g.InDegree(v) != 1 || g.OutDegree(v) != 1) {
			return false
		}
		e := g.FirstOutEdge(v)
		v = g.Edges[e].To
		visited++
		if visited > g.NumLiveVertices() {
			return false // cycle guard
		}
	}
	return visited == g.NumLiveVertices()
}
