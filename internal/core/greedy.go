// Package core implements the flow-computation algorithms of Kosyfaki et
// al., "Flow Computation in Temporal Interaction Networks" (ICDE 2021),
// each stated once:
//
//   - Greedy flow computation (Section 4.1): scan, a single pass over the
//     interactions in canonical order, with Greedy, GreedyArrivals and
//     GreedyTrace as its visitors.
//   - The greedy-solubility test (Lemmas 1 and 2, Section 4.2.2).
//   - The greedy scan of a Lemma-2 instance given by position, as runs
//     between positions, staged one position at a time (ScanRuns), with
//     its chain case, the scan along a single path with its arrival
//     sequence (PathArrivals; Lemmas 1 and 3) — the one positional scan,
//     used by graph simplification and class-A seeds here and by the path
//     tables, the relaxed searches and the decomposable rigid patterns of
//     internal/pattern.
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

// ScanRuns is the greedy scan of Definition 5 over a Lemma-2 instance given
// by position instead of as a graph: run i moves the interactions of
// seqs[i] (sorted by Ord, all drawn from one container, so no two runs
// share an Ord) from position from[i] to position to[i]. Position source
// holds an infinite buffer and every other one starts empty; source and
// sink differ. Every position but the source leaves by at most one run, and
// the positions are acyclic once runs into the source are ignored (they
// move nothing the scan can see): chains, decomposable pattern instances,
// petal bundles and class-A seeds are such instances. ScanRuns panics on a
// position with two out-runs and on an out-run of the sink that leads back
// to it.
//
// The scan is staged by position. A position is brought up to an Ord by
// one merge of its in-runs: each interaction of an in-run moves min(q, B)
// out of the run's tail once the tail has been brought up to that
// interaction's Ord, and a source run moves its own quantities. The sink
// is brought up to the end, so each stage runs only as far as the position
// downstream of it takes transfers — the last Ord of that position's
// out-run — and no transfer list is kept. A run out of a position that is
// empty and has nothing more coming moves nothing more, and one out of an
// empty position skips, one interaction at a time, to the next
// interaction into that position (dead stretches are short). Each buffer
// sees the min(q, B) moves scan makes on the instance's graph, in the same
// order, so the flow into sink is the same bits. If arrivals is non-nil,
// every positive transfer into sink is appended to it in the form
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
	var posStack [8]position
	var runStack [8]runState
	s := stages{seqs: seqs, from: from, source: source}
	s.pos = stackOr(posStack[:], npos)
	s.runs = stackOr(runStack[:], len(seqs))
	for i, f := range from {
		if t := to[i]; t != source {
			s.runs[i].sibling = s.pos[t].in
			s.pos[t].in = int32(i + 1)
		}
		if f != source {
			if s.pos[f].out != 0 {
				panic("core: ScanRuns: a position other than the source has two out-runs")
			}
			s.pos[f].out = int32(i + 1)
		}
	}
	r := int(s.pos[sink].out) - 1
	if r < 0 {
		s.fill(sink, math.MaxInt64, arrivals)
		return s.pos[sink].buf
	}
	// The sink's out-run drains it as the sink fills; what it moves goes
	// where the sink never takes from.
	v := to[r]
	for steps := 0; steps < npos && v != source && v != sink && s.pos[v].out != 0; steps++ {
		v = to[s.pos[v].out-1]
	}
	if v == sink {
		panic("core: ScanRuns: the sink's out-run leads back to it")
	}
	for _, ia := range seqs[r] {
		s.fill(sink, ia.Ord, arrivals)
		if b := s.pos[sink].buf; min(ia.Qty, b) > 0 && !math.IsInf(b, 1) {
			s.pos[sink].buf = b - min(ia.Qty, b)
		}
	}
	s.fill(sink, math.MaxInt64, arrivals)
	return s.pos[sink].buf
}

// stages is the state of ScanRuns's staged scan.
type stages struct {
	seqs   [][]tin.Interaction
	from   []int
	source int
	pos    []position
	runs   []runState
}

// position is a position's buffer, the first of the runs into it and the
// run out of it, each as 1 + its index, 0 for none.
type position struct {
	buf     float64
	in, out int32
}

// runState is a run's first interaction not yet moved and the next run
// into the same position (1 + its index, 0 for none).
type runState struct {
	next, sibling int32
}

// fill brings position u up to Ord stop: every interaction before stop of
// a run into u moves, in Ord order — each pick of the in-run with the
// least next interaction takes that run's whole stretch before the next
// least.
func (s *stages) fill(u int, stop int64, arrivals *[]Arrival) {
	first := s.pos[u].in
	if first == 0 {
		return
	}
	if s.runs[first-1].sibling == 0 {
		s.pos[u].buf = s.take(int(first-1), stop, s.pos[u].buf, arrivals)
		return
	}
	for {
		c, least, second := -1, int64(math.MaxInt64), int64(math.MaxInt64)
		for r := first; r != 0; r = s.runs[r-1].sibling {
			if h := s.head(int(r - 1)); h < least {
				c, least, second = int(r-1), h, least
			} else if h < second {
				second = h
			}
		}
		if least >= stop {
			return
		}
		if s.from[c] != s.source || arrivals != nil {
			s.pos[u].buf = s.take(c, min(second, stop), s.pos[u].buf, arrivals)
			continue
		}
		// A source run moves its own quantities (a petal bundle's summaries
		// into the sink): take's first loop, without the call.
		seq, j, b := s.seqs[c], int(s.runs[c].next), s.pos[u].buf
		for stop := min(second, stop); j < len(seq) && seq[j].Ord < stop; j++ {
			b += seq[j].Qty
		}
		s.pos[u].buf, s.runs[c].next = b, int32(j)
	}
}

// head is the Ord of run r's first interaction not yet moved,
// math.MaxInt64 once it has none.
func (s *stages) head(r int) int64 {
	if j, seq := s.runs[r].next, s.seqs[r]; int(j) < len(seq) {
		return seq[j].Ord
	}
	return math.MaxInt64
}

// take moves the interactions of run r before Ord stop into b, its head
// position's buffer, and returns b; each positive transfer is appended to
// arrivals when that is non-nil.
func (s *stages) take(r int, stop int64, b float64, arrivals *[]Arrival) float64 {
	seq, j, f := s.seqs[r], int(s.runs[r].next), s.from[r]
	// Quantities are never negative, so a move of nothing is an addition
	// of zero, which leaves a buffer's bits as they are: the moves need no
	// test, only the arrivals do.
	if f == s.source {
		for ; j < len(seq) && seq[j].Ord < stop; j++ {
			b += seq[j].Qty
			if arrivals != nil && seq[j].Qty > 0 {
				*arrivals = append(*arrivals, seq[j])
			}
		}
		s.runs[r].next = int32(j)
		return b
	}
	// A tail fed by one source run, the first hop of every chain, is
	// brought up to each interaction in this loop: a merge of two runs.
	in := int(s.pos[f].in) - 1
	single := in >= 0 && s.runs[in].sibling == 0
	fed := single && s.from[in] == s.source
	var src []tin.Interaction
	k, bf := 0, s.pos[f].buf
	if fed {
		src, k = s.seqs[in], int(s.runs[in].next)
	}
	for j < len(seq) && seq[j].Ord < stop {
		ia := seq[j]
		if fed {
			for ; k < len(src) && src[k].Ord < ia.Ord; k++ {
				bf += src[k].Qty
			}
		} else if single {
			if s.head(in) < ia.Ord {
				bf = s.take(in, ia.Ord, bf, nil)
			}
		} else {
			s.pos[f].buf = bf
			s.fill(f, ia.Ord, nil)
			bf = s.pos[f].buf
		}
		j++
		q := min(ia.Qty, bf)
		if !math.IsInf(bf, 1) {
			bf -= q
		}
		b += q
		if arrivals != nil && q > 0 {
			*arrivals = append(*arrivals, Arrival{Time: ia.Time, Qty: q, Ord: ia.Ord})
		}
		if bf == 0 {
			// Nothing leaves an empty position before the next interaction
			// into it: skip the dead stretch, or the rest of the run.
			next := int64(math.MaxInt64)
			if fed {
				if k < len(src) {
					next = src[k].Ord
				}
			} else {
				for c := s.pos[f].in; c != 0; c = s.runs[c-1].sibling {
					next = min(next, s.head(int(c-1)))
				}
			}
			for j < len(seq) && seq[j].Ord < min(next, stop) {
				j++
			}
			if next == math.MaxInt64 {
				j = len(seq)
			}
		}
	}
	if fed {
		s.runs[in].next = int32(k)
	}
	s.pos[f].buf, s.runs[r].next = bf, int32(j)
	return b
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
// the first edge. It returns the total flow into the path's end and, if
// arrivals is non-nil, appends the arrival sequence there to it, in the
// form GreedyArrivals reports.
//
// It is ScanRuns's chain case: position i feeds seqs[i] and is fed by
// seqs[i-1], so a cyclic path (last vertex = first vertex) needs no
// splitting — position 0 acts as the source copy, position len(seqs) as the
// sink copy. By Lemma 1 the flow is the path's maximum flow, and by Lemma 3
// the arrival sequence is an exact summary of the path: it is what
// Simplify substitutes for a source chain and what the pattern path tables
// of Section 5.2 store.
func PathArrivals(seqs [][]tin.Interaction, arrivals *[]Arrival) float64 {
	k := len(seqs)
	var fromStack, toStack [8]int
	from, to := stackOr(fromStack[:], k), stackOr(toStack[:], k)
	for i := range k {
		from[i], to[i] = i, i+1
	}
	return ScanRuns(seqs, from, to, 0, k, arrivals)
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
