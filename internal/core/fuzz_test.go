package core

import (
	"math"
	"testing"

	"flownet/internal/teg"
	"flownet/internal/tin"
)

// fuzzGraph decodes fuzz bytes into a small random flow instance: byte 0
// picks the vertex count (3..8), then every 4-byte chunk encodes one
// interaction; vertex 0 is a pure source and the last vertex a pure sink.
// With acyclic set, an edge always points from a lower to a higher vertex
// id, so the graph is a DAG by construction; without it, any edge between
// distinct vertices that respects the two terminals may appear, cycles
// included, and timestamps are folded onto 0..7 so that most of them are
// shared. Inputs whose graph fails Validate (isolated vertices break the
// paper's connectivity precondition) are skipped.
func fuzzGraph(data []byte, acyclic bool) (*tin.Graph, bool) {
	if len(data) < 5 {
		return nil, false
	}
	numV := 3 + int(data[0]%6)
	rest := data[1:]
	if len(rest) > 4*64 { // cap the interaction count; fuzzing wants many small inputs
		rest = rest[:4*64]
	}
	g := tin.NewGraph(numV, 0, tin.VertexID(numV-1))
	type pair struct{ from, to tin.VertexID }
	edges := make(map[pair]tin.EdgeID)
	added := 0
	for ; len(rest) >= 4; rest = rest[4:] {
		from := int(rest[0]) % (numV - 1)
		to := from + 1 + int(rest[1])%(numV-1-from)
		time := float64(rest[2])
		if !acyclic {
			to = 1 + int(rest[1])%(numV-1)
			time = float64(rest[2] % 8)
			if to == from {
				continue
			}
		}
		p := pair{tin.VertexID(from), tin.VertexID(to)}
		e, ok := edges[p]
		if !ok {
			e = g.AddEdge(p.from, p.to)
			edges[p] = e
		}
		g.AddInteraction(e, time, float64(rest[3]%32))
		added++
	}
	if added == 0 {
		return nil, false
	}
	g.Finalize()
	if g.Validate() != nil {
		return nil, false
	}
	return g, true
}

// FuzzFlowEquivalence cross-checks the flow engines on random acyclic TINs:
// the PreSim pipeline (LP engine), the Pre pipeline (TEG engine) and the
// raw time-expanded reduction must agree on the maximum flow, the greedy
// scan must never exceed it, and on greedy-soluble graphs (Lemma 2) the
// greedy result must BE the maximum flow.
func FuzzFlowEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 5, 1, 1, 2, 4})             // 3 vertices, 0->1->2 chain
	f.Add([]byte{2, 0, 1, 1, 9, 0, 0, 2, 9})             // diamond-ish, ties
	f.Add([]byte{5, 1, 2, 3, 4, 0, 0, 200, 31})          // late high-capacity edge
	f.Add([]byte{3, 0, 0, 7, 0, 1, 1, 3, 3})             // zero-quantity interaction
	f.Add([]byte{0, 0, 0, 5, 5, 0, 0, 1, 5, 1, 0, 9, 5}) // parallel sequence on one edge
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ok := fuzzGraph(data, true)
		if !ok {
			return
		}
		presim, err := PreSim(g, EngineLP)
		if err != nil {
			t.Fatalf("PreSim(LP) failed on valid input: %v\n%s", err, g)
		}
		pre, err := Pre(g, EngineTEG)
		if err != nil {
			t.Fatalf("Pre(TEG) failed on valid input: %v\n%s", err, g)
		}
		tegFlow := teg.MaxFlow(g)
		tol := 1e-6 * (1 + math.Abs(tegFlow))
		if math.Abs(presim.Flow-tegFlow) > tol {
			t.Fatalf("PreSim(LP) flow %v != TEG flow %v\n%s", presim.Flow, tegFlow, g)
		}
		if math.Abs(pre.Flow-tegFlow) > tol {
			t.Fatalf("Pre(TEG) flow %v != TEG flow %v\n%s", pre.Flow, tegFlow, g)
		}
		greedy := Greedy(g)
		if greedy > tegFlow+tol {
			t.Fatalf("greedy flow %v exceeds maximum %v\n%s", greedy, tegFlow, g)
		}
		if GreedySoluble(g) && math.Abs(greedy-tegFlow) > tol {
			t.Fatalf("greedy-soluble graph: greedy %v != maximum %v\n%s", greedy, tegFlow, g)
		}
	})
}

// FuzzSolveAgreesWithEngines cross-checks Solve, the one answer path, on
// random instances with and without cycles and with heavily shared
// timestamps: it must agree with the raw LP and the raw time-expanded
// reduction (neither needs a DAG), report Cyclic exactly when
// the instance is, and never fall below the greedy scan — matching it on
// acyclic greedy-soluble instances (Lemma 2 is stated for DAGs). The raw
// reduction must also equal the written-out one (referenceMaxFlow) exactly:
// quantities are integers 0..31, so every sum is exact, and the two share
// no layout.
func FuzzSolveAgreesWithEngines(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 5, 1, 1, 2, 3, 2, 0, 3, 2, 1, 2, 4, 4, 2, 2, 5, 1}) // 0→1, 1⇄2, both into 3: flow 5
	f.Add([]byte{1, 0, 0, 1, 5, 1, 1, 1, 3, 2, 0, 1, 2, 1, 2, 1, 4, 2, 2, 1, 1}) // the same at one shared timestamp
	f.Add([]byte{0, 0, 0, 1, 5, 1, 1, 2, 4})                                     // a chain: acyclic, class A
	f.Add([]byte{1, 0, 0, 1, 5, 0, 1, 2, 3, 1, 1, 3, 5, 1, 2, 4, 4, 2, 2, 5, 1}) // the paper's Figure 3: acyclic, class C
	f.Add([]byte{2, 0, 0, 0, 9, 1, 2, 0, 9, 3, 1, 0, 9, 2, 3, 0, 5, 2, 0, 0, 9}) // 0→1→3→2→4 with 2→1 closing a cycle, all ties
	// 1 and 2 turn from sending back to receiving three and two times, sending
	// to each other and to the sink 3 on tied timestamps: one node per
	// receive-then-send round in the engine's network, one per arrival in the
	// written-out one.
	f.Add([]byte{1, 0, 0, 0, 5, 1, 1, 1, 3, 2, 2, 1, 2, 0, 0, 1, 4, 1, 2, 2, 3,
		0, 1, 2, 2, 2, 0, 3, 1, 1, 2, 4, 4, 2, 2, 4, 5, 0, 0, 5, 3, 1, 1, 5, 2, 2, 2, 6, 6})
	// Massive ties: 64 interactions spread over 6 and over 8 vertices, all at
	// one timestamp and alternating between two, with every edge pointing
	// forward (a DAG, so PreSim runs) and with edges both ways (cyclic) — the
	// order of the whole instance is the insertion order alone.
	for _, inner := range []int{5, 7} { // vertices other than the sink
		for _, times := range []int{1, 2} {
			for _, forward := range []bool{true, false} {
				data := []byte{byte(inner - 2)}
				for i := 0; i < 64; i++ {
					from, to := i%inner, i/3
					if forward {
						to = from + i/inner%(inner-from)
					}
					data = append(data, byte(from), byte(to), byte(i%times), byte(1+i%7))
				}
				f.Add(data)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ok := fuzzGraph(data, false)
		if !ok {
			return
		}
		lpFlow, err := MaxFlowLP(g)
		if err != nil {
			t.Fatalf("MaxFlowLP failed on valid input: %v\n%s", err, g)
		}
		tegFlow := teg.MaxFlow(g)
		if !feq(lpFlow, tegFlow) {
			t.Fatalf("raw LP flow %v != raw TEG flow %v\n%s", lpFlow, tegFlow, g)
		}
		if ref := referenceMaxFlow(g); tegFlow != ref {
			t.Fatalf("raw TEG flow %v != written-out reduction %v\n%s", tegFlow, ref, g)
		}
		greedy := Greedy(g)
		res := Solve(g)
		if !feq(res.Flow, tegFlow) {
			t.Fatalf("Solve flow %v != engines' %v\n%s", res.Flow, tegFlow, g)
		}
		if res.Cyclic == g.IsDAG() {
			t.Fatalf("Solve: Cyclic = %t on a graph with IsDAG = %t\n%s", res.Cyclic, g.IsDAG(), g)
		}
		if greedy > res.Flow && !feq(greedy, res.Flow) {
			t.Fatalf("greedy flow %v exceeds Solve = %v\n%s", greedy, res.Flow, g)
		}
		if !res.Cyclic && GreedySoluble(g) && !feq(greedy, res.Flow) {
			t.Fatalf("acyclic greedy-soluble graph: greedy %v != Solve = %v\n%s", greedy, res.Flow, g)
		}
	})
}
