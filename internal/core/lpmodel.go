package core

import (
	"math"

	"flownet/internal/lp"
	"flownet/internal/tin"
)

// LPModel is the linear program of Section 4.2.1 built from a graph:
// one variable per interaction not originating at the source (such
// interactions always transfer their full quantity, so they enter the model
// as constants), with
//
//	(1)  0 ≤ x_i ≤ q_i
//	(2)  x_i + Σ_{j≺i, src_j=v} x_j − Σ_{j≺i, dst_j=v} x_j ≤ c_i(v)
//	(3)  maximize Σ_{dst_i = sink} x_i
//
// where v = src_i, ≺ is the canonical interaction order, and c_i(v) is the
// constant inflow v has received from source-adjacent interactions before i.
type LPModel struct {
	Prob *lp.Problem
	// VarOf maps an interaction's canonical Ord, as an index below
	// OrdBound, to its LP variable; -1 for interactions leaving the source
	// (they have no variable) and for Ords no live interaction has.
	VarOf []int32
	// ConstFlow is the flow contributed by interactions going directly from
	// source to sink; it is added to the LP objective value.
	ConstFlow float64
}

// BuildLP constructs the LP model of g. The graph need not be a DAG: the
// formulation only relies on the canonical interaction order.
func BuildLP(g *tin.Graph) *LPModel {
	events := g.Events()

	// First pass: number the variables.
	varOf := make([]int32, g.OrdBound())
	for i := range varOf {
		varOf[i] = -1
	}
	nvars := int32(0)
	for _, ev := range events {
		if ev.From != g.Source {
			varOf[ev.Ord] = nvars
			nvars++
		}
	}
	p := lp.NewProblem(int(nvars))
	m := &LPModel{Prob: p, VarOf: varOf}

	// Per-vertex running ledgers of earlier events.
	outVars := make([][]lp.Entry, g.NumV) // prior outgoing variables (+1)
	inVars := make([][]lp.Entry, g.NumV)  // prior incoming variables (-1)
	inConst := make([]float64, g.NumV)    // prior constant inflow from source

	for _, ev := range events {
		if ev.From == g.Source {
			// Constant transfer of the full quantity.
			if ev.To == g.Sink {
				m.ConstFlow += ev.Qty
			} else {
				inConst[ev.To] += ev.Qty
			}
			continue
		}
		x := int(varOf[ev.Ord])
		if !math.IsInf(ev.Qty, 1) {
			p.SetBound(x, ev.Qty)
		}
		if ev.To == g.Sink {
			p.SetObjective(x, 1)
		}
		v := ev.From
		// Constraint (2) for this interaction.
		row := make([]lp.Entry, 0, 1+len(outVars[v])+len(inVars[v]))
		row = append(row, lp.Entry{Var: x, Coef: 1})
		row = append(row, outVars[v]...)
		row = append(row, inVars[v]...)
		p.AddConstraint(row, inConst[v])

		// Update ledgers after emitting the constraint: i itself is not
		// "before" i.
		outVars[v] = append(outVars[v], lp.Entry{Var: x, Coef: 1})
		if ev.To != g.Sink {
			inVars[ev.To] = append(inVars[ev.To], lp.Entry{Var: x, Coef: -1})
		}
	}
	return m
}

// solveLP builds and solves the LP model of g — the package's one call of
// the simplex — and returns the maximum flow with the model and solution.
// An unbounded LP (possible only with synthetic infinite-quantity
// interactions forming an infinite channel) is math.Inf(1), nil solution.
func solveLP(g *tin.Graph) (float64, *LPModel, *lp.Solution, error) {
	m := BuildLP(g)
	sol, err := lp.Solve(m.Prob)
	if err == lp.ErrUnbounded {
		return math.Inf(1), m, nil, nil
	}
	if err != nil {
		return 0, m, nil, err
	}
	return sol.Objective + m.ConstFlow, m, sol, nil
}

// MaxFlowLP computes the temporal maximum flow of g from the LP model alone,
// the paper's baseline and the oracle the tests compare Solve with. An
// unbounded LP is reported as math.Inf(1). The baseline's limit is the
// simplex's absolute 1e-9 tolerance (internal/lp): it agrees with the
// time-expanded reduction to 1e-9 relative on quantities of 1e-6 and up, is
// percent-level off on quantities near 1e-9 and answers 0 below them
// (TestEnginesAgreeAcrossMagnitudes).
func MaxFlowLP(g *tin.Graph) (float64, error) {
	flow, _, _, err := solveLP(g)
	return flow, err
}

// LPTransfers solves the LP and returns the total flow together with the
// per-interaction transfer quantities, indexed by Ord like VarOf
// (interactions leaving the source transfer their full quantity); nil when
// the LP is unbounded. Used by tests to verify feasibility of the optimum.
func LPTransfers(g *tin.Graph) (float64, []float64, error) {
	flow, m, sol, err := solveLP(g)
	if sol == nil {
		return flow, nil, err
	}
	byOrd := make([]float64, len(m.VarOf))
	for _, ev := range g.Events() {
		byOrd[ev.Ord] = ev.Qty
		if x := m.VarOf[ev.Ord]; x >= 0 {
			byOrd[ev.Ord] = sol.X[x]
		}
	}
	return flow, byOrd, nil
}
