package core

import (
	"fmt"

	"flownet/internal/teg"
	"flownet/internal/tin"
)

// Engine selects the exact solver applied when the greedy algorithm is not
// guaranteed to find the maximum flow.
type Engine int

const (
	// EngineLP solves the LP formulation with the simplex of internal/lp,
	// as the paper does (it used the lpsolve library).
	EngineLP Engine = iota
	// EngineTEG solves the time-expanded static reduction with Dinic's
	// algorithm; same optimum, different cost profile.
	EngineTEG
)

// String returns the engine name.
func (e Engine) String() string {
	switch e {
	case EngineLP:
		return "lp"
	case EngineTEG:
		return "teg"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// Class is the difficulty class of a subgraph as defined in Section 6.2 of
// the paper.
type Class int

const (
	// ClassA graphs are soluble by the greedy algorithm as-is.
	ClassA Class = iota
	// ClassB graphs become greedy-soluble after preprocessing.
	ClassB
	// ClassC graphs need the exact engine even after preprocessing.
	ClassC
)

// String returns "A", "B" or "C".
func (c Class) String() string { return [...]string{"A", "B", "C"}[c] }

// Result is the outcome of a pipeline run or of Solve.
type Result struct {
	// Flow is the maximum flow from source to sink.
	Flow float64
	// Class is the difficulty class the pipeline assigned to the input.
	Class Class
	// UsedEngine is true when the exact engine ran (Class C).
	UsedEngine bool
	// SolvedGreedyAfterSimplify is true when simplification alone reduced a
	// Class C graph to a greedy-soluble one (PreSim only).
	SolvedGreedyAfterSimplify bool
	// Pre / Sim describe what preprocessing and simplification removed.
	Pre PreprocessStats
	Sim SimplifyStats
	// LPVariables is the variable count of the final LP (0 if none ran).
	LPVariables int
	// Cyclic is true when the instance had a directed cycle (Solve met
	// one, or SolveExtraction was handed a cyclic pair's residue) and the
	// time-expanded engine answered it as it was: the pipeline and its
	// classes are defined on DAGs. Class is ClassC and UsedEngine true
	// then, the statistics zero.
	Cyclic bool
}

// Solve computes the maximum flow of any flow instance: the one answer path
// behind cmd/flowcalc and the root MaxFlow and, through SolveExtraction,
// behind served and batched queries, and the one place that knows which
// exact engine answers — the time-expanded reduction, always. One
// topological sort decides the rest: a cyclic instance (pair extractions
// may be) goes to the reduction as it is, which needs no DAG; an acyclic
// one runs PreSim's reductions, with that order handed to Algorithm 1, and
// only a class-C residue reaches the reduction.
// The LP is as exact in real arithmetic but is not on this path: its dense
// tableau is quadratic in the interaction count, its absolute 1e-9
// tolerances lose quantities below about 1e-6 (see MaxFlowLP), and it can
// fail where the reduction cannot — so Solve returns no error. Pre and
// PreSim keep it as the paper's baseline and as the oracle the served
// answers are tested against. The input graph is not modified.
func Solve(g *tin.Graph) Result { return solve(g, false) }

// SolveExtraction is Solve's answer to an extraction (x.Ok) in whichever
// form tin.Query.Residue gave it, and what /flow and BatchSeedsContext
// serve:
//
//   - runs (x.Graph nil), a class-A seed instance by position: the greedy
//     scan of ScanRuns, the bits Greedy gives on the instance's graph;
//   - a cyclic pair's residue (x.Residue): the time-expanded reduction,
//     which lays out only an instance's live interactions — exactly the
//     residue's — so the bits are the whole instance's;
//   - the instance's graph: Solve, but x.Graph is consumed — the caller
//     hands it over, and the reductions run on it in place, not on a clone.
//
// The Result is Solve's on the instance's graph in every field.
func SolveExtraction(x tin.Extraction) Result {
	switch {
	case x.Graph == nil:
		return Result{Flow: ScanRuns(x.Runs, x.RunFrom, x.RunTo, 0, 1, nil), Class: ClassA}
	case x.Residue:
		return cyclic(x.Graph)
	}
	return solve(x.Graph, true)
}

// solve is Solve, with the reductions run on g itself when own is set.
func solve(g *tin.Graph, own bool) Result {
	order, err := g.TopoOrder()
	if err != nil {
		return cyclic(g)
	}
	res, residue, _ := reduce(g, true, order, own)
	if residue != nil {
		res.Flow = teg.MaxFlow(residue)
	}
	return res
}

// cyclic answers a cyclic instance, or a cyclic pair's residue: the
// time-expanded reduction on g as it is, Class C with the engine used and
// the statistics zero.
func cyclic(g *tin.Graph) Result {
	return Result{Flow: teg.MaxFlow(g), Class: ClassC, UsedEngine: true, Cyclic: true}
}

// Pre is the paper's "Pre" method: test greedy solubility (Lemma 2); if it
// fails, preprocess (Algorithm 1) and re-test; only if that also fails run
// the exact engine. The input graph is not modified and must be a DAG.
func Pre(g *tin.Graph, engine Engine) (Result, error) {
	return pipeline(g, engine, false)
}

// PreSim is the paper's complete solution: Pre plus graph simplification
// (Algorithm 2) before the exact engine runs. The input graph is not
// modified and must be a DAG (Solve takes cycles): a caller that knows its
// instances acyclic, as rigid pattern instances are, pays no topological
// sort on the greedy-soluble ones.
func PreSim(g *tin.Graph, engine Engine) (Result, error) {
	return pipeline(g, engine, true)
}

// pipeline is Pre (simplify false) or PreSim: reduce, then the chosen
// engine on a class-C residue.
func pipeline(g *tin.Graph, engine Engine, simplify bool) (Result, error) {
	res, residue, err := reduce(g, simplify, nil, false)
	if err != nil || residue == nil {
		return res, err
	}
	if engine == EngineTEG {
		res.Flow = teg.MaxFlow(residue)
		return res, nil
	}
	flow, m, _, err := solveLP(residue)
	if err != nil {
		return res, fmt.Errorf("core: %s engine: %w", engine, err)
	}
	res.Flow, res.LPVariables = flow, m.Prob.NumVars()
	return res, nil
}

// reduce is the pipeline up to the exact engine: the solubility tests,
// Algorithm 1 and (simplify) Algorithm 2 on the DAG g — on g itself when
// own is set, else on a clone. order is g's topological order, or nil to
// have reduce sort g only when it is not greedy-soluble — the error is that
// sort's, on a cyclic g. A nil residue means the result is complete;
// otherwise the instance is class C, Flow is still unset and the residue's
// maximum flow is g's.
func reduce(g *tin.Graph, simplify bool, order []tin.VertexID, own bool) (res Result, residue *tin.Graph, err error) {
	if GreedySoluble(g) {
		res.Flow = Greedy(g)
		res.Class = ClassA
		return res, nil, nil
	}
	if order == nil {
		if order, err = g.TopoOrder(); err != nil {
			return Result{}, nil, fmt.Errorf("core: preprocess: %w", err)
		}
	}
	h := g
	if !own {
		h = g.Clone()
	}
	res.Pre = preprocess(h, order)
	res.Class = ClassB
	if ZeroFlow(h) {
		return res, nil, nil
	}
	if GreedySoluble(h) {
		res.Flow = Greedy(h)
		return res, nil, nil
	}
	res.Class = ClassC
	if simplify {
		res.Sim = Simplify(h)
		if ZeroFlow(h) {
			return res, nil, nil
		}
		if GreedySoluble(h) {
			res.Flow = Greedy(h)
			res.SolvedGreedyAfterSimplify = true
			return res, nil, nil
		}
	}
	res.UsedEngine = true
	return res, h, nil
}
