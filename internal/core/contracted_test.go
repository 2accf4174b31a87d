package core

import (
	"math"
	"math/rand"
	"testing"

	"flownet/internal/teg"
	"flownet/internal/tin"
)

// alternatingGraph draws an instance on 4..8 vertices whose inner vertices
// receive and then send in each of several rounds, so each of them turns
// from sending back to receiving a few times: the engine gives such a
// vertex one node per round it has not merged. Times are drawn from a
// window two rounds wide, so many are tied and insertion order decides;
// quantities are hundredths, inexact in binary. With acyclic set, edges
// point from lower to higher ids; without it, a sender or receiver may be
// any other vertex the terminals allow.
func alternatingGraph(rng *rand.Rand, acyclic bool) *tin.Graph {
	numV := 4 + rng.Intn(5)
	sink := numV - 1
	g := tin.NewGraph(numV, 0, tin.VertexID(sink))
	edges := map[[2]int]tin.EdgeID{}
	add := func(from, to int, time float64) {
		e, ok := edges[[2]int{from, to}]
		if !ok {
			e = g.AddEdge(tin.VertexID(from), tin.VertexID(to))
			edges[[2]int{from, to}] = e
		}
		g.AddInteraction(e, time, float64(1+rng.Intn(9999))/100)
	}
	other := func(v, lo, hi int) int { // uniform over [lo, hi) without v
		u := lo + rng.Intn(hi-lo-1)
		if u >= v {
			u++
		}
		return u
	}
	rounds := 2 + rng.Intn(4)
	for r := 0; r < rounds; r++ {
		for v := 1; v < sink; v++ {
			var from, to int
			if acyclic {
				from, to = rng.Intn(v), v+1+rng.Intn(sink-v)
			} else {
				from, to = other(v, 0, sink), other(v, 1, numV)
			}
			add(from, v, float64(r+rng.Intn(2)))
			add(v, to, float64(r+rng.Intn(2)))
		}
	}
	g.Finalize()
	return g
}

// turns counts the arrivals at g's inner vertices that follow a departure
// of the same vertex in canonical order: the blocks the engine opens after
// a vertex's first.
func turns(g *tin.Graph) int {
	sent := make([]bool, g.NumV)
	n := 0
	for _, ev := range g.Events() {
		if sent[ev.To] {
			n++
			sent[ev.To] = false
		}
		sent[ev.From] = true
	}
	return n
}

// TestContractedAgreesOnFractions holds the engine, whose network merges
// each vertex's arrivals-then-departures blocks into one node, to the
// per-arrival expansion written out in test code (referenceMaxFlow), on
// instances where that merge matters: inner vertices that alternate
// between receiving and sending, cyclic and acyclic, with tied timestamps
// and hundredth quantities. The two sum their augmentations in different
// orders, so they agree within 1e-12 relative, not bit for bit
// (FuzzSolveAgreesWithEngines holds them equal on integers).
func TestContractedAgreesOnFractions(t *testing.T) {
	const relTol = 1e-12
	rng := rand.New(rand.NewSource(33))
	const perKind = 100
	worst, positive, turned, cyclic := 0.0, 0, 0, 0
	for i := 0; i < 2*perKind; i++ {
		acyclic := i < perKind
		g := alternatingGraph(rng, acyclic)
		if !g.IsDAG() {
			cyclic++
		}
		got, ref := teg.MaxFlow(g), referenceMaxFlow(g)
		if diff := math.Abs(got - ref); diff > relTol*math.Abs(ref) {
			t.Fatalf("engine flow %v, written-out reduction %v (%.3g relative)\n%s", got, ref, diff/math.Abs(ref), g)
		} else if ref != 0 {
			worst = math.Max(worst, diff/ref)
			positive++
		}
		if turns(g) >= 2 {
			turned++
		}
	}
	// Guards on the draw itself: the cyclic draws mostly have a cycle (the
	// acyclic ones cannot), and most instances carry flow and turn from
	// sending to receiving at least twice.
	if cyclic < perKind/2 || positive < perKind || turned < perKind {
		t.Fatalf("of %d instances %d are cyclic, %d carry flow and %d turn twice; the generator no longer exercises the merge",
			2*perKind, cyclic, positive, turned)
	}
	t.Logf("%d instances, %d cyclic, %d with flow, %d turning twice or more; worst relative difference %.3g",
		2*perKind, cyclic, positive, turned, worst)
}
