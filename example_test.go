package flownet_test

import (
	"fmt"

	flownet "flownet"
)

// ExampleGreedy reproduces the paper's Table 2: the greedy scan on the
// Figure 3 graph delivers only 1 unit to the sink.
func ExampleGreedy() {
	g := flownet.NewGraph(4, 0, 3) // s=0, y=1, z=2, t=3
	e := g.AddEdge(0, 1)
	g.AddInteraction(e, 1, 5)
	e = g.AddEdge(0, 2)
	g.AddInteraction(e, 2, 3)
	e = g.AddEdge(1, 2)
	g.AddInteraction(e, 3, 5)
	e = g.AddEdge(1, 3)
	g.AddInteraction(e, 4, 4)
	e = g.AddEdge(2, 3)
	g.AddInteraction(e, 5, 1)
	g.Finalize()

	fmt.Println(flownet.Greedy(g))
	// Output: 1
}

// ExampleMaxFlow shows that allowing vertices to reserve quantity for
// later interactions raises the Figure 3 flow from 1 to 5 (Table 3).
func ExampleMaxFlow() {
	g := flownet.NewGraph(4, 0, 3)
	e := g.AddEdge(0, 1)
	g.AddInteraction(e, 1, 5)
	e = g.AddEdge(0, 2)
	g.AddInteraction(e, 2, 3)
	e = g.AddEdge(1, 2)
	g.AddInteraction(e, 3, 5)
	e = g.AddEdge(1, 3)
	g.AddInteraction(e, 4, 4)
	e = g.AddEdge(2, 3)
	g.AddInteraction(e, 5, 1)
	g.Finalize()

	max := flownet.MaxFlow(g)
	fmt.Println(max)
	// Output: 5
}

// ExamplePreSim inspects the pipeline's diagnosis of a graph: the class
// tells whether the exact engine was needed at all.
func ExamplePreSim() {
	g := flownet.NewGraph(3, 0, 2) // a chain: class A
	e := g.AddEdge(0, 1)
	g.AddInteraction(e, 1, 5)
	e = g.AddEdge(1, 2)
	g.AddInteraction(e, 2, 3)
	g.Finalize()

	res, _ := flownet.PreSim(g, flownet.EngineLP)
	fmt.Printf("flow=%g class=%s engine=%v\n", res.Flow, res.Class, res.UsedEngine)
	// Output: flow=3 class=A engine=false
}

// ExampleSearchPB finds 2-hop transaction cycles with precomputed tables:
// the network has one mutual pair, matched once per direction.
func ExampleSearchPB() {
	b := flownet.NewNetwork(3)
	b.AddInteraction(0, 1, 1, 5) // 0 pays 1 ...
	b.AddInteraction(1, 0, 2, 4) // ... and 1 pays back
	b.AddInteraction(1, 2, 3, 9)
	n := b.Finalize()

	tables := flownet.Precompute(n, false)
	sum, _ := flownet.SearchPB(n, tables, flownet.P2, flownet.PatternOptions{})
	fmt.Printf("instances=%d totalFlow=%g\n", sum.Instances, sum.TotalFlow)
	// Output: instances=2 totalFlow=4
}

// ExampleGraph_RestrictWindow computes a flow restricted to a time window
// (the paper's §7 time-restricted variant).
func ExampleGraph_RestrictWindow() {
	g := flownet.NewGraph(3, 0, 2)
	e := g.AddEdge(0, 1)
	g.AddInteraction(e, 1, 5)
	g.AddInteraction(e, 10, 5)
	e = g.AddEdge(1, 2)
	g.AddInteraction(e, 2, 3)
	g.AddInteraction(e, 11, 3)
	g.Finalize()

	full := flownet.MaxFlow(g)
	early := flownet.MaxFlow(g.RestrictWindow(0, 5))
	fmt.Printf("full=%g window[0,5]=%g\n", full, early)
	// Output: full=6 window[0,5]=3
}
