package core

import (
	"math"
	"math/rand"
	"testing"

	"flownet/internal/tin"
)

// scaled returns a copy of g with every quantity multiplied by s; the
// canonical order is g's.
func scaled(g *tin.Graph, s float64) *tin.Graph {
	h := g.Clone()
	for _, e := range h.Edges {
		for i := range e.Seq {
			e.Seq[i].Qty *= s
		}
	}
	return h
}

// TestEnginesAgreeAcrossMagnitudes sweeps the instances only the exact
// engine answers — class-C DAGs and cyclic graphs, up to 64 interactions of
// integer quantity 0..31 on three timestamps, so nearly every order is a
// tie — over eighteen orders of magnitude of quantity (one satoshi is 1e-8
// BTC, a Prosper loan 1e4 USD).
//
//   - Unit scale: Solve equals the written-out reduction solved with
//     Edmonds–Karp (referenceMaxFlow) exactly; every sum of small integers
//     is exact in float64, whatever its order.
//   - Scales 1e-6 … 1e12: Solve equals the LP oracle within relTol = 1e-9
//     relative (the tolerance the server tests and the benchmark driver
//     hold served flows to), and Greedy never exceeds Solve by more.
//   - Scales 1e-9 and 1e-13: Solve equals scale × the unit answer within
//     relTol. The LP is excused here, by name: its simplex compares pivots,
//     reduced costs and ratio-test steps with an absolute 1e-9
//     (internal/lp), which is the size of these quantities. The log line
//     reports how far off that puts it: 5% on these instances at 1e-9 (20%
//     on the 600-instance sweep this test was cut from), an answer of 0 at
//     1e-13.
func TestEnginesAgreeAcrossMagnitudes(t *testing.T) {
	const relTol = 1e-9
	within := func(a, b float64) bool { return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b)) }
	rng := rand.New(rand.NewSource(24))
	const perKind = 150
	dags, cyclic := 0, 0
	lpWorst := map[float64]float64{}
	for dags < perKind || cyclic < perKind {
		acyclic := dags < perKind
		data := []byte{byte(rng.Intn(6))}
		for i, k := 0, 24+rng.Intn(41); i < k; i++ {
			data = append(data, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(3)), byte(rng.Intn(32)))
		}
		g, ok := fuzzGraph(data, acyclic)
		if !ok {
			continue
		}
		unit := Solve(g)
		if !unit.UsedEngine || unit.Cyclic == acyclic || unit.Flow == 0 {
			continue // the reductions answered it, or the cyclic draw has no cycle
		}
		if acyclic {
			dags++
		} else {
			cyclic++
		}
		if ref := referenceMaxFlow(g); unit.Flow != ref {
			t.Fatalf("integer quantities: Solve = %v, written-out reduction = %v\n%s", unit.Flow, ref, g)
		}
		for _, s := range []float64{1e-6, 1e-3, 1, 1e3, 1e6, 1e9, 1e12} {
			h := scaled(g, s)
			got := Solve(h).Flow
			lp, err := MaxFlowLP(h)
			if err != nil {
				t.Fatalf("scale %g: MaxFlowLP: %v\n%s", s, err, h)
			}
			if !within(got, lp) {
				t.Fatalf("scale %g: Solve = %v, LP oracle = %v\n%s", s, got, lp, h)
			}
			if greedy := Greedy(h); greedy > got*(1+relTol) {
				t.Fatalf("scale %g: Greedy = %v exceeds Solve = %v\n%s", s, greedy, got, h)
			}
		}
		for _, s := range []float64{1e-9, 1e-13} {
			h := scaled(g, s)
			if got := Solve(h).Flow; !within(got, s*unit.Flow) {
				t.Fatalf("scale %g: Solve = %v, want %g x the unit answer %v\n%s", s, got, s, unit.Flow, h)
			}
			if lp, err := MaxFlowLP(h); err == nil {
				lpWorst[s] = math.Max(lpWorst[s], math.Abs(lp-s*unit.Flow)/(s*unit.Flow))
			}
		}
	}
	t.Logf("%d class-C DAGs and %d cyclic instances; the LP's worst relative error: %.2g at scale 1e-9, %.2g at 1e-13",
		dags, cyclic, lpWorst[1e-9], lpWorst[1e-13])
}
