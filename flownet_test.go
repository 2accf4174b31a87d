package flownet_test

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	flownet "flownet"
)

// buildFigure3 builds the paper's running example through the public API.
func buildFigure3() *flownet.Graph {
	g := flownet.NewGraph(4, 0, 3)
	edges := [][2]flownet.VertexID{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}}
	seqs := [][2]float64{{1, 5}, {2, 3}, {3, 5}, {4, 4}, {5, 1}}
	for i, e := range edges {
		id := g.AddEdge(e[0], e[1])
		g.AddInteraction(id, seqs[i][0], seqs[i][1])
	}
	g.Finalize()
	return g
}

func TestPublicFlowAPI(t *testing.T) {
	g := buildFigure3()
	if f := flownet.Greedy(g); f != 1 {
		t.Errorf("Greedy=%g, want 1", f)
	}
	if flownet.GreedySoluble(g) {
		t.Errorf("figure 3 graph should not be greedy-soluble")
	}
	max := flownet.MaxFlow(g)
	if math.Abs(max-5) > 1e-9 {
		t.Errorf("MaxFlow=%g, want 5", max)
	}
	lp, err := flownet.MaxFlowLP(g)
	if err != nil || math.Abs(lp-5) > 1e-9 {
		t.Errorf("MaxFlowLP=%g (%v), want 5", lp, err)
	}
	if f := flownet.MaxFlowTEG(g); math.Abs(f-5) > 1e-9 {
		t.Errorf("MaxFlowTEG=%g, want 5", f)
	}
	res, err := flownet.PreSim(g, flownet.EngineLP)
	if err != nil {
		t.Fatalf("PreSim: %v", err)
	}
	if res.Class != flownet.ClassC {
		t.Errorf("class=%s, want C", res.Class)
	}
	resT, err := flownet.Pre(g, flownet.EngineTEG)
	if err != nil || math.Abs(resT.Flow-5) > 1e-9 {
		t.Errorf("Pre TEG flow=%g (%v), want 5", resT.Flow, err)
	}
}

func TestPublicMutators(t *testing.T) {
	g := buildFigure3()
	h := g.Clone()
	if _, err := flownet.Preprocess(h); err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	flownet.Simplify(h)
	f, err := flownet.MaxFlowLP(h)
	if err != nil || math.Abs(f-5) > 1e-9 {
		t.Errorf("flow after reductions=%g (%v), want 5", f, err)
	}
}

// TestReducedEdgeRaisesOrdBound pins that the exported mutators keep every
// Ord below OrdBound: an edge added with an Ord past the bound used to leave
// Greedy and MaxFlowLP answering 3 while MaxFlowTEG indexed out of range.
func TestReducedEdgeRaisesOrdBound(t *testing.T) {
	g := flownet.NewGraph(3, 0, 2)
	g.AddInteraction(g.AddEdge(0, 1), 1, 5)
	g.Finalize()
	e := g.AddReducedEdge(1, 2, []flownet.Interaction{{Time: 2, Qty: 3, Ord: 7}})
	check := func(want float64) {
		t.Helper()
		lp, err := flownet.MaxFlowLP(g)
		if err != nil {
			t.Fatalf("MaxFlowLP: %v", err)
		}
		if gr, teg := flownet.Greedy(g), flownet.MaxFlowTEG(g); gr != want || lp != want || teg != want {
			t.Fatalf("Greedy = %g, MaxFlowLP = %g, MaxFlowTEG = %g, want %g", gr, lp, teg, want)
		}
	}
	check(3)
	g.SetSeq(e, []flownet.Interaction{{Time: 2, Qty: 2, Ord: 7}, {Time: 3, Qty: 2, Ord: 40}})
	check(4)

	defer func() {
		if r := recover(); r == nil || !strings.HasPrefix(fmt.Sprint(r), "tin:") {
			t.Fatalf("SetSeq of a sequence descending in Ord: recovered %v, want a tin: panic", r)
		}
	}()
	g.SetSeq(e, []flownet.Interaction{{Time: 2, Qty: 2, Ord: 9}, {Time: 3, Qty: 2, Ord: 8}})
}

func TestPublicNetworkAndPatterns(t *testing.T) {
	b := flownet.NewNetwork(4)
	b.AddInteraction(0, 1, 1, 5)
	b.AddInteraction(1, 0, 2, 4)
	b.AddInteraction(1, 2, 3, 3)
	b.AddInteraction(2, 0, 4, 3)
	n := b.Finalize()

	tables := flownet.Precompute(n, true)
	opts := flownet.PatternOptions{Engine: flownet.EngineLP}
	gb, err := flownet.SearchGB(n, flownet.P2, opts)
	if err != nil {
		t.Fatalf("SearchGB: %v", err)
	}
	pb, err := flownet.SearchPB(n, tables, flownet.P2, opts)
	if err != nil {
		t.Fatalf("SearchPB: %v", err)
	}
	if gb.Instances != pb.Instances || gb.Instances != 2 {
		t.Errorf("P2 instances GB=%d PB=%d, want 2 (both rotations)", gb.Instances, pb.Instances)
	}

	count := 0
	err = flownet.EnumerateGB(n, flownet.P3, func(inst *flownet.Instance) bool {
		f, err := flownet.InstanceFlow(n, flownet.P3, inst, flownet.EngineLP)
		if err != nil {
			t.Fatalf("InstanceFlow: %v", err)
		}
		if f < 0 {
			t.Errorf("negative flow")
		}
		count++
		return true
	})
	if err != nil {
		t.Fatalf("EnumerateGB: %v", err)
	}
	if count != 3 {
		t.Errorf("P3 instances=%d, want 3 (rotations of 0-1-2)", count)
	}
	if len(flownet.PatternCatalogue) != 9 {
		t.Errorf("catalogue size=%d, want 9", len(flownet.PatternCatalogue))
	}
}

func TestPublicExtensions(t *testing.T) {
	// Time-window restriction (§7), source-sink subgraph extraction, and
	// table delta updates (footnote 2) are all reachable from the facade.
	b := flownet.NewNetwork(4)
	b.AddInteraction(0, 1, 1, 5)
	b.AddInteraction(1, 2, 2, 4)
	b.AddInteraction(2, 3, 3, 3)
	b.AddInteraction(1, 3, 9, 1)
	n := b.Finalize()

	g, ok := n.FlowSubgraphBetween(0, 3)
	if !ok {
		t.Fatalf("no subgraph 0->3")
	}
	if max := flownet.MaxFlow(g); math.Abs(max-4) > 1e-9 {
		t.Errorf("flow 0->3 = %g, want 4 (3 via chain + 1 direct)", max)
	}

	w := g.RestrictWindow(1, 3)
	if wmax := flownet.MaxFlow(w); math.Abs(wmax-3) > 1e-9 {
		t.Errorf("windowed flow = %g, want 3", wmax)
	}

	windowed := n.RestrictWindow(2, 9)
	if windowed.NumInteractions() != 3 {
		t.Errorf("network window kept %d interactions, want 3", windowed.NumInteractions())
	}

	tables := flownet.Precompute(n, true)
	updated := tables.Update(n, nil) // no changes: must be a no-op copy
	if len(updated.L3.Rows) != len(tables.L3.Rows) || len(updated.C2.Rows) != len(tables.C2.Rows) {
		t.Errorf("no-op update changed table sizes")
	}

	// MinPaths through the facade.
	if _, err := flownet.SearchGB(n, flownet.RP2, flownet.PatternOptions{MinPaths: 2}); err != nil {
		t.Errorf("MinPaths search: %v", err)
	}
}

func TestPublicExtractAndIO(t *testing.T) {
	n := flownet.GenerateProsper(flownet.DatasetConfig{Vertices: 300, Seed: 9})
	path := filepath.Join(t.TempDir(), "net.txt.gz")
	if err := flownet.SaveNetwork(path, n); err != nil {
		t.Fatalf("SaveNetwork: %v", err)
	}
	m, err := flownet.LoadNetwork(path)
	if err != nil {
		t.Fatalf("LoadNetwork: %v", err)
	}
	if m.NumInteractions() != n.NumInteractions() {
		t.Errorf("round trip lost interactions")
	}
	found := false
	for v := 0; v < m.NumVertices() && !found; v++ {
		g, ok := m.ExtractSubgraph(flownet.VertexID(v), flownet.DefaultExtractOptions())
		if !ok {
			continue
		}
		found = true
		greedy := flownet.Greedy(g)
		if max := flownet.MaxFlow(g); greedy > max+1e-6 {
			t.Errorf("greedy %g exceeds max %g", greedy, max)
		}
	}
	if !found {
		t.Fatalf("no extractable subgraph in generated network")
	}
}

// TestMaxFlowCyclicInstance pins that MaxFlow answers the cyclic instances
// FlowSubgraphBetween returns (it used to fail them with Algorithm 1's
// "graph contains a directed cycle"), in agreement with the two engines
// that never needed a DAG.
func TestMaxFlowCyclicInstance(t *testing.T) {
	check := func(name string, g *flownet.Graph) float64 {
		t.Helper()
		if g.IsDAG() {
			t.Fatalf("%s: instance is acyclic; the test is vacuous", name)
		}
		got := flownet.MaxFlow(g)
		lp, err := flownet.MaxFlowLP(g)
		if err != nil {
			t.Fatalf("%s: MaxFlowLP: %v", name, err)
		}
		teg := flownet.MaxFlowTEG(g)
		tol := 1e-6 * (1 + math.Abs(teg))
		if math.Abs(got-lp) > tol || math.Abs(got-teg) > tol {
			t.Fatalf("%s: MaxFlow = %g, MaxFlowLP = %g, MaxFlowTEG = %g", name, got, lp, teg)
		}
		return got
	}

	// 0→1, then the 1⇄2 cycle, both draining into 3: all 5 units arrive.
	b := flownet.NewNetwork(4)
	b.AddInteraction(0, 1, 1, 5)
	b.AddInteraction(1, 2, 2, 3)
	b.AddInteraction(2, 1, 3, 2)
	b.AddInteraction(1, 3, 4, 4)
	b.AddInteraction(2, 3, 5, 1)
	n := b.Finalize()
	g, ok := n.FlowSubgraphBetween(0, 3)
	if !ok {
		t.Fatal("0 cannot reach 3")
	}
	if f := check("4-vertex", g); math.Abs(f-5) > 1e-9 {
		t.Fatalf("4-vertex: MaxFlow = %g, want 5", f)
	}

	rng := rand.New(rand.NewSource(15))
	for found := 0; found < 50; {
		const numV = 7
		nb := flownet.NewNetwork(numV)
		for i := 0; i < 24; i++ {
			if a, b := rng.Intn(numV), rng.Intn(numV); a != b {
				nb.AddInteraction(flownet.VertexID(a), flownet.VertexID(b), float64(rng.Intn(12)), float64(1+rng.Intn(9)))
			}
		}
		n := nb.Finalize()
		src, snk := flownet.VertexID(rng.Intn(numV)), flownet.VertexID(rng.Intn(numV))
		if src == snk {
			continue
		}
		if g, ok := n.FlowSubgraphBetween(src, snk); ok && !g.IsDAG() {
			found++
			check(fmt.Sprintf("random #%d", found), g)
		}
	}
}

// TestExactEnginesCarryTinyQuantities: an exact answer may never fall below
// the greedy lower bound, however small the quantities. The instance is not
// greedy-soluble (vertex 1 has two ways out) but greedy happens to find its
// maximum, 3q; a max-flow search that compares residual capacities with an
// absolute tolerance instead of 0 answers 0 once q is below it.
func TestExactEnginesCarryTinyQuantities(t *testing.T) {
	for _, q := range []float64{1e-13, 1e-12, 1, 1e12} {
		g := flownet.NewGraph(4, 0, 3)
		for _, ia := range []struct {
			from, to  flownet.VertexID
			time, qty float64
		}{{0, 1, 1, 2 * q}, {0, 2, 1, q}, {1, 2, 2, q}, {1, 3, 3, q}, {2, 3, 4, 2 * q}} {
			g.AddInteraction(g.AddEdge(ia.from, ia.to), ia.time, ia.qty)
		}
		g.Finalize()
		for name, f := range map[string]float64{"Greedy": flownet.Greedy(g), "MaxFlow": flownet.MaxFlow(g), "MaxFlowTEG": flownet.MaxFlowTEG(g)} {
			if math.Abs(f-3*q) > 1e-9*3*q {
				t.Errorf("q=%g: %s = %g, want 3q = %g", q, name, f, 3*q)
			}
		}
	}
}
