// Package lp implements a dense primal simplex solver for linear programs
// with bounded variables:
//
//	maximize    c·x
//	subject to  A x ≤ b,   0 ≤ x ≤ u,   b ≥ 0
//
// where individual upper bounds may be +inf. The b ≥ 0 restriction means the
// all-slack basis is primal feasible, so no phase-1 is needed; the max-flow
// LP of Kosyfaki et al. (ICDE 2021), for which this package exists, always
// satisfies it (the right-hand sides are accumulated source inflows).
//
// Upper bounds are handled natively in the ratio test (nonbasic variables
// rest at either bound and may "bound-flip" without a basis change), which
// keeps the tableau at m rows instead of m + n. Pricing is Dantzig's rule
// with an automatic switch to Bland's rule after a streak of degenerate
// pivots, which guarantees termination.
//
// The solver is deliberately a straightforward dense tableau implementation:
// in the reproduced paper the LP is the expensive baseline that the graph
// preprocessing and simplification techniques beat, so a sparse revised
// simplex would only distort that comparison's shape. That is its whole
// role here: cmd/repro measures it as that baseline and the tests use it
// as an oracle independent of the max-flow code; no served or batched
// answer comes from it (core.Solve hands class-C instances to the
// time-expanded reduction). Its tolerances (epsCost, epsPivot, epsBound)
// are an absolute 1e-9, so objective values are trustworthy for
// right-hand sides and bounds of about 1e-6 and up, and a problem whose
// quantities are below 1e-9 looks solved at 0; they are the baseline's
// limit and are not scaled to the input.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnbounded is returned when the objective can be increased without
// limit. For the max-flow model this happens only when infinite-capacity
// synthetic edges form an infinite source→sink channel; callers may
// interpret it as +inf flow.
var ErrUnbounded = errors.New("lp: problem is unbounded")

// ErrIterationLimit is returned when the solver exceeds its iteration
// budget, which indicates numerical trouble rather than a hard problem.
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

// Entry is one nonzero coefficient of a constraint row.
type Entry struct {
	Var  int
	Coef float64
}

// Problem is an LP in the bounded standard form documented at the package
// level. Build it with NewProblem, SetObjective/SetBound and AddConstraint.
type Problem struct {
	n    int
	c    []float64
	u    []float64
	rows [][]Entry
	b    []float64
}

// NewProblem creates a problem with n variables, zero objective and
// infinite upper bounds.
func NewProblem(n int) *Problem {
	p := &Problem{
		n: n,
		c: make([]float64, n),
		u: make([]float64, n),
	}
	for i := range p.u {
		p.u[i] = math.Inf(1)
	}
	return p
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return p.n }

// NumConstraints returns the number of constraint rows.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// SetObjective sets the objective coefficient of variable v.
func (p *Problem) SetObjective(v int, coef float64) { p.c[v] = coef }

// AddObjective adds coef to the objective coefficient of variable v.
func (p *Problem) AddObjective(v int, coef float64) { p.c[v] += coef }

// SetBound sets the upper bound of variable v (lower bounds are fixed at 0).
// Use math.Inf(1) for an unbounded variable.
func (p *Problem) SetBound(v int, upper float64) {
	if upper < 0 {
		panic(fmt.Sprintf("lp: negative upper bound %g for variable %d", upper, v))
	}
	p.u[v] = upper
}

// AddConstraint appends the row Σ entries ≤ b. b must be non-negative
// (callers with an infinite right-hand side should simply omit the row).
func (p *Problem) AddConstraint(entries []Entry, b float64) {
	if b < 0 {
		panic(fmt.Sprintf("lp: negative right-hand side %g", b))
	}
	if math.IsInf(b, 1) {
		return // vacuous
	}
	row := make([]Entry, len(entries))
	copy(row, entries)
	p.rows = append(p.rows, row)
	p.b = append(p.b, b)
}

// Solution is the result of Solve.
type Solution struct {
	// Objective is the optimal objective value c·x.
	Objective float64
	// X holds the optimal structural variable values.
	X []float64
	// Iterations counts simplex pivots (including bound flips).
	Iterations int
}

const (
	epsCost  = 1e-9 // reduced-cost optimality tolerance
	epsPivot = 1e-9 // minimum acceptable pivot magnitude
	epsBound = 1e-9 // tolerance for degenerate steps and fixed variables
)

// Solve runs the bounded-variable primal simplex and returns the optimal
// solution, ErrUnbounded, or ErrIterationLimit.
func Solve(p *Problem) (*Solution, error) {
	n, m := p.n, len(p.rows)
	total := n + m // structural + slack variables

	if m == 0 {
		// Without rows every variable independently goes to whichever bound
		// its objective sign prefers.
		sol := &Solution{X: make([]float64, n)}
		for j := 0; j < n; j++ {
			if p.c[j] > 0 {
				if math.IsInf(p.u[j], 1) {
					return nil, ErrUnbounded
				}
				sol.X[j] = p.u[j]
				sol.Objective += p.c[j] * p.u[j]
			}
		}
		return sol, nil
	}

	// Dense tableau T = B^{-1} [A | I], one row per constraint.
	t := make([][]float64, m)
	for i := 0; i < m; i++ {
		t[i] = make([]float64, total)
		for _, e := range p.rows[i] {
			t[i][e.Var] += e.Coef
		}
		t[i][n+i] = 1
	}
	beta := append([]float64(nil), p.b...) // basic variable values
	basis := make([]int, m)                // basis[i] = variable of row i
	inBasis := make([]int, total)          // variable -> row, or -1
	atUpper := make([]bool, total)         // nonbasic rest status
	for j := range inBasis {
		inBasis[j] = -1
	}
	for i := 0; i < m; i++ {
		basis[i] = n + i
		inBasis[n+i] = i
	}
	// Reduced costs (objective row), kept up to date by pivots.
	d := make([]float64, total)
	copy(d, p.c)

	upperOf := func(j int) float64 {
		if j < n {
			return p.u[j]
		}
		return math.Inf(1) // slack
	}

	maxIter := 200 * (total + 10)
	degenStreak := 0
	bland := false
	iters := 0

	for ; iters < maxIter; iters++ {
		// Pricing: eligible entering variables are nonbasic at-lower with
		// positive reduced cost or at-upper with negative reduced cost.
		enter := -1
		best := 0.0
		for j := 0; j < total; j++ {
			if inBasis[j] >= 0 {
				continue
			}
			if upperOf(j) <= epsBound && !atUpper[j] {
				continue // fixed at zero
			}
			var score float64
			if !atUpper[j] && d[j] > epsCost {
				score = d[j]
			} else if atUpper[j] && d[j] < -epsCost {
				score = -d[j]
			} else {
				continue
			}
			if bland {
				enter = j
				break
			}
			if score > best {
				best = score
				enter = j
			}
		}
		if enter == -1 {
			break // optimal
		}

		sigma := 1.0 // entering increases from lower bound
		if atUpper[enter] {
			sigma = -1 // entering decreases from upper bound
		}

		// Ratio test over basic variables, plus the entering variable's own
		// opposite bound (bound flip).
		delta := upperOf(enter) // flip distance (may be +inf)
		leave := -1             // row index of leaving variable; -1 = flip
		leaveToUpper := false
		for i := 0; i < m; i++ {
			y := sigma * t[i][enter]
			k := basis[i]
			if y > epsPivot {
				// Basic variable decreases toward its lower bound 0.
				if r := beta[i] / y; r < delta-epsBound || (r < delta+epsBound && betterLeave(leave, i, basis, t, enter, bland)) {
					if r < 0 {
						r = 0
					}
					delta = r
					leave = i
					leaveToUpper = false
					_ = k
				}
			} else if y < -epsPivot {
				// Basic variable increases toward its upper bound.
				ub := upperOf(k)
				if math.IsInf(ub, 1) {
					continue
				}
				if r := (ub - beta[i]) / -y; r < delta-epsBound || (r < delta+epsBound && betterLeave(leave, i, basis, t, enter, bland)) {
					if r < 0 {
						r = 0
					}
					delta = r
					leave = i
					leaveToUpper = true
				}
			}
		}
		if math.IsInf(delta, 1) {
			return nil, ErrUnbounded
		}

		if delta <= epsBound {
			degenStreak++
			if degenStreak > 2*total+50 {
				bland = true
			}
		} else {
			degenStreak = 0
			if bland {
				bland = false
			}
		}

		// Apply the step to the basic values.
		if delta > 0 {
			for i := 0; i < m; i++ {
				beta[i] -= sigma * t[i][enter] * delta
			}
		}

		if leave == -1 {
			// Bound flip: entering variable moves to its other bound.
			atUpper[enter] = !atUpper[enter]
			continue
		}

		// Pivot: entering becomes basic in row leave.
		leaving := basis[leave]
		inBasis[leaving] = -1
		atUpper[leaving] = leaveToUpper
		basis[leave] = enter
		inBasis[enter] = leave
		// New basic value of the entering variable.
		if atUpper[enter] {
			beta[leave] = upperOf(enter) - delta
		} else {
			beta[leave] = delta
		}
		atUpper[enter] = false

		// Gaussian elimination on the tableau.
		piv := t[leave][enter]
		prow := t[leave]
		inv := 1 / piv
		for j := 0; j < total; j++ {
			prow[j] *= inv
		}
		for i := 0; i < m; i++ {
			if i == leave {
				continue
			}
			f := t[i][enter]
			if f == 0 {
				continue
			}
			row := t[i]
			for j := 0; j < total; j++ {
				row[j] -= f * prow[j]
			}
			row[enter] = 0 // clamp round-off
		}
		f := d[enter]
		if f != 0 {
			for j := 0; j < total; j++ {
				d[j] -= f * prow[j]
			}
			d[enter] = 0
		}
	}
	if iters >= maxIter {
		return nil, ErrIterationLimit
	}

	// Assemble the solution.
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		if atUpper[j] && inBasis[j] < 0 {
			x[j] = p.u[j]
		}
	}
	for i := 0; i < m; i++ {
		if basis[i] < n {
			v := beta[i]
			if v < 0 && v > -1e-7 {
				v = 0
			}
			x[basis[i]] = v
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.c[j] * x[j]
	}
	return &Solution{Objective: obj, X: x, Iterations: iters}, nil
}

// betterLeave breaks ratio-test ties: under Bland's rule the smallest basic
// variable index leaves (anti-cycling); otherwise the row with the larger
// pivot magnitude is preferred for numerical stability.
func betterLeave(cur, cand int, basis []int, t [][]float64, enter int, bland bool) bool {
	if cur == -1 {
		return true
	}
	if bland {
		return basis[cand] < basis[cur]
	}
	return math.Abs(t[cand][enter]) > math.Abs(t[cur][enter])
}
