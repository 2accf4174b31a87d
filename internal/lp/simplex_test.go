package lp

import (
	"math"
	"math/rand"
	"testing"
)

const tol = 1e-7

func approx(a, b float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func mustSolve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestEmptyProblem(t *testing.T) {
	p := NewProblem(3)
	p.SetObjective(0, 5)
	p.SetBound(0, 2)
	p.SetBound(1, 10)
	p.SetObjective(2, -1)
	p.SetBound(2, 4)
	sol := mustSolve(t, p)
	if !approx(sol.Objective, 10) {
		t.Errorf("objective %g, want 10", sol.Objective)
	}
	if !approx(sol.X[0], 2) || !approx(sol.X[1], 0) || !approx(sol.X[2], 0) {
		t.Errorf("x = %v", sol.X)
	}
}

func TestEmptyProblemUnbounded(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective(0, 1)
	if _, err := Solve(p); err != ErrUnbounded {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
}

func TestSimpleTwoVar(t *testing.T) {
	// maximize 3x + 2y  s.t.  x + y <= 4;  x + 3y <= 6;  x,y >= 0.
	// Optimum at (4, 0): obj 12.
	p := NewProblem(2)
	p.SetObjective(0, 3)
	p.SetObjective(1, 2)
	p.AddConstraint([]Entry{{0, 1}, {1, 1}}, 4)
	p.AddConstraint([]Entry{{0, 1}, {1, 3}}, 6)
	sol := mustSolve(t, p)
	if !approx(sol.Objective, 12) {
		t.Errorf("objective %g, want 12", sol.Objective)
	}
}

func TestClassicProduction(t *testing.T) {
	// maximize 5x + 4y  s.t.  6x + 4y <= 24;  x + 2y <= 6.
	// Optimum (3, 1.5): obj 21.
	p := NewProblem(2)
	p.SetObjective(0, 5)
	p.SetObjective(1, 4)
	p.AddConstraint([]Entry{{0, 6}, {1, 4}}, 24)
	p.AddConstraint([]Entry{{0, 1}, {1, 2}}, 6)
	sol := mustSolve(t, p)
	if !approx(sol.Objective, 21) {
		t.Errorf("objective %g, want 21", sol.Objective)
	}
	if !approx(sol.X[0], 3) || !approx(sol.X[1], 1.5) {
		t.Errorf("x = %v, want [3 1.5]", sol.X)
	}
}

func TestUpperBoundsBind(t *testing.T) {
	// maximize x + y  s.t.  x + y <= 10;  x <= 3, y <= 4. Optimum 7.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.SetBound(0, 3)
	p.SetBound(1, 4)
	p.AddConstraint([]Entry{{0, 1}, {1, 1}}, 10)
	sol := mustSolve(t, p)
	if !approx(sol.Objective, 7) {
		t.Errorf("objective %g, want 7", sol.Objective)
	}
}

func TestBoundFlipPath(t *testing.T) {
	// The constraint forces a trade-off between a bounded and an unbounded
	// variable; the bounded one should flip to its upper bound.
	// maximize 2x + y  s.t.  x + y <= 5;  x <= 2. Optimum x=2, y=3: 7.
	p := NewProblem(2)
	p.SetObjective(0, 2)
	p.SetObjective(1, 1)
	p.SetBound(0, 2)
	p.AddConstraint([]Entry{{0, 1}, {1, 1}}, 5)
	sol := mustSolve(t, p)
	if !approx(sol.Objective, 7) {
		t.Errorf("objective %g, want 7", sol.Objective)
	}
	if !approx(sol.X[0], 2) || !approx(sol.X[1], 3) {
		t.Errorf("x = %v, want [2 3]", sol.X)
	}
}

func TestUnbounded(t *testing.T) {
	// maximize x - y  s.t.  -x + y <= 1 leaves x unbounded.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, -1)
	p.AddConstraint([]Entry{{0, -1}, {1, 1}}, 1)
	if _, err := Solve(p); err != ErrUnbounded {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
}

func TestZeroObjective(t *testing.T) {
	p := NewProblem(2)
	p.AddConstraint([]Entry{{0, 1}, {1, 1}}, 3)
	sol := mustSolve(t, p)
	if !approx(sol.Objective, 0) {
		t.Errorf("objective %g, want 0", sol.Objective)
	}
}

func TestFixedVariable(t *testing.T) {
	// A variable with upper bound zero must stay at zero even with a
	// favourable objective.
	p := NewProblem(2)
	p.SetObjective(0, 100)
	p.SetObjective(1, 1)
	p.SetBound(0, 0)
	p.SetBound(1, 5)
	p.AddConstraint([]Entry{{0, 1}, {1, 1}}, 50)
	sol := mustSolve(t, p)
	if !approx(sol.Objective, 5) {
		t.Errorf("objective %g, want 5", sol.Objective)
	}
	if !approx(sol.X[0], 0) {
		t.Errorf("fixed variable moved: %g", sol.X[0])
	}
}

func TestNegativeRHSPanics(t *testing.T) {
	p := NewProblem(1)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	p.AddConstraint([]Entry{{0, 1}}, -1)
}

func TestNegativeBoundPanics(t *testing.T) {
	p := NewProblem(1)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	p.SetBound(0, -2)
}

func TestInfiniteRHSIsVacuous(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective(0, 1)
	p.SetBound(0, 9)
	p.AddConstraint([]Entry{{0, 1}}, math.Inf(1))
	if p.NumConstraints() != 0 {
		t.Fatalf("infinite row stored")
	}
	sol := mustSolve(t, p)
	if !approx(sol.Objective, 9) {
		t.Errorf("objective %g, want 9", sol.Objective)
	}
}

func TestDegenerateProblem(t *testing.T) {
	// Multiple redundant constraints through the origin; exercises the
	// degeneracy handling / Bland switch.
	p := NewProblem(3)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.SetObjective(2, 1)
	p.AddConstraint([]Entry{{0, 1}, {1, -1}}, 0)
	p.AddConstraint([]Entry{{1, 1}, {2, -1}}, 0)
	p.AddConstraint([]Entry{{0, 1}, {2, -1}}, 0)
	p.AddConstraint([]Entry{{0, 1}, {1, 1}, {2, 1}}, 3)
	sol := mustSolve(t, p)
	if !approx(sol.Objective, 3) {
		t.Errorf("objective %g, want 3", sol.Objective)
	}
}

func TestDuplicateVarEntriesAreSummed(t *testing.T) {
	// {0,1},{0,1} in one row must behave as coefficient 2.
	p := NewProblem(1)
	p.SetObjective(0, 1)
	p.AddConstraint([]Entry{{0, 1}, {0, 1}}, 4)
	sol := mustSolve(t, p)
	if !approx(sol.Objective, 2) {
		t.Errorf("objective %g, want 2", sol.Objective)
	}
}

// TestRandomAgainstBruteForce compares the simplex against brute-force
// vertex enumeration on small dense random problems with box bounds.
func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(2) // 2..3 variables
		m := 1 + rng.Intn(3) // 1..3 constraints
		p := NewProblem(n)
		u := make([]float64, n)
		for j := 0; j < n; j++ {
			u[j] = float64(1 + rng.Intn(5))
			p.SetBound(j, u[j])
			p.SetObjective(j, float64(rng.Intn(11)-3))
		}
		rows := make([][]float64, m)
		bs := make([]float64, m)
		for i := 0; i < m; i++ {
			rows[i] = make([]float64, n)
			var entries []Entry
			for j := 0; j < n; j++ {
				c := float64(rng.Intn(7) - 2)
				rows[i][j] = c
				if c != 0 {
					entries = append(entries, Entry{j, c})
				}
			}
			bs[i] = float64(rng.Intn(10))
			p.AddConstraint(entries, bs[i])
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		// Brute force over a fine grid (bounds are small integers, and with
		// integral data an optimal vertex has rational coordinates; a 0.25
		// grid lower-bounds the optimum while feasibility of the simplex
		// solution is checked exactly).
		best := gridMax(rows, bs, u, p.c)
		if sol.Objective < best-1e-6 {
			t.Fatalf("trial %d: simplex %g below grid bound %g", trial, sol.Objective, best)
		}
		// Verify feasibility of the returned point.
		for i := 0; i < m; i++ {
			lhs := 0.0
			for j := 0; j < n; j++ {
				lhs += rows[i][j] * sol.X[j]
			}
			if lhs > bs[i]+1e-6 {
				t.Fatalf("trial %d: constraint %d violated: %g > %g", trial, i, lhs, bs[i])
			}
		}
		for j := 0; j < n; j++ {
			if sol.X[j] < -1e-9 || sol.X[j] > u[j]+1e-6 {
				t.Fatalf("trial %d: bound violated: x[%d]=%g, u=%g", trial, j, sol.X[j], u[j])
			}
		}
	}
}

func gridMax(rows [][]float64, bs, u, c []float64) float64 {
	n := len(u)
	best := math.Inf(-1)
	var rec func(j int, x []float64)
	rec = func(j int, x []float64) {
		if j == n {
			for i := range rows {
				lhs := 0.0
				for k := 0; k < n; k++ {
					lhs += rows[i][k] * x[k]
				}
				if lhs > bs[i]+1e-12 {
					return
				}
			}
			obj := 0.0
			for k := 0; k < n; k++ {
				obj += c[k] * x[k]
			}
			if obj > best {
				best = obj
			}
			return
		}
		for v := 0.0; v <= u[j]+1e-12; v += 0.25 {
			x[j] = v
			rec(j+1, x)
		}
	}
	rec(0, make([]float64, n))
	return best
}
