// Quickstart: the paper's running example (Figure 1(a)) end to end —
// greedy flow, maximum flow, preprocessing and simplification — using only
// the public flownet API.
package main

import (
	"fmt"
	"log"

	flownet "flownet"
)

func main() {
	// Figure 1(a): a toy money-transfer network.
	//   s -> x : (1,$3) (7,$5)      x -> z : (5,$5)
	//   s -> y : (2,$6)             y -> z : (8,$5)   y -> t : (9,$4)
	//   z -> t : (2,$3) (10,$1)
	const (
		s, x, y, z, t = 0, 1, 2, 3, 4
	)
	g := flownet.NewGraph(5, s, t)
	add := func(from, to flownet.VertexID, seq ...[2]float64) {
		e := g.AddEdge(from, to)
		for _, tq := range seq {
			g.AddInteraction(e, tq[0], tq[1])
		}
	}
	add(s, x, [2]float64{1, 3}, [2]float64{7, 5})
	add(x, z, [2]float64{5, 5})
	add(s, y, [2]float64{2, 6})
	add(y, z, [2]float64{8, 5})
	add(y, t, [2]float64{9, 4})
	add(z, t, [2]float64{2, 3}, [2]float64{10, 1})
	g.Finalize()

	fmt.Println("Interaction network (Figure 1(a)):")
	fmt.Print(g)

	// Greedy flow: every interaction forwards as much as possible.
	fmt.Printf("\nGreedy flow  (single scan):        $%g\n", flownet.Greedy(g))

	// Maximum flow: vertices may reserve quantity for later interactions.
	fmt.Printf("Maximum flow (PreSim pipeline):    $%g\n", flownet.MaxFlow(g))

	// Why they differ: y receives $6 at time 2; greedily sending $5 to z at
	// time 8 leaves only $1 for the $4-capacity interaction to t at time 9.
	res, err := flownet.PreSim(g, flownet.EngineLP)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Difficulty class:                  %s (greedy is not exact here)\n", res.Class)

	// The reductions that make the exact solve cheap:
	h := g.Clone()
	pstats, err := flownet.Preprocess(h)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAfter preprocessing (Algorithm 1): removed %d interactions\n", pstats.Interactions)
	sstats := flownet.Simplify(h)
	fmt.Printf("After simplification (Algorithm 2): %d chain(s) reduced\n", sstats.ChainsReduced)
	fmt.Println("\nSimplified network (cf. Figure 1(b)):")
	fmt.Print(h)

	// The paper's LP, an independent check, on the reduced graph:
	max2, err := flownet.MaxFlowLP(h)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMaximum flow on the reduced graph: $%g (unchanged, as guaranteed)\n", max2)

	// MaxFlow's exact engine (time-expanded Dinic) on the unreduced graph:
	fmt.Printf("Time-expanded reduction agrees:    $%g\n", flownet.MaxFlowTEG(g))
}
