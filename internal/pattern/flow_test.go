package pattern

import (
	"math"
	"math/rand"
	"testing"

	"flownet/internal/core"
	"flownet/internal/tin"
)

// Custom rigid patterns beyond the catalogue, each on a different branch of
// InstanceFlow and SearchGB.
var (
	// cycle4 is a 4-hop cycle a→b→c→d→a: decomposable, a single petal.
	cycle4 = &Pattern{Name: "cycle4", Kind: KindRigid, NV: 4,
		Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}}
	// converging is a→b, a→c, b→d, c→d, d→a: decomposable (every inner
	// vertex has one outgoing edge), but d has two incoming ones, so the
	// chains share d and are not petals.
	converging = &Pattern{Name: "converging", Kind: KindRigid, NV: 4,
		Edges: [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 0}}, LessPairs: [][2]int{{1, 2}}}
	// chord is a 4-hop cycle a→b→c→d→a with the chord b→d: b has two
	// outgoing edges, so instances go to the graph pipeline (P6-like).
	chord = &Pattern{Name: "chord", Kind: KindRigid, NV: 4,
		Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 3}}}
	// shortcut is the chain a→b→c beside the edge a→c, source a, sink c:
	// two petals of an acyclic pattern, one of them a single edge.
	shortcut = &Pattern{Name: "shortcut", Kind: KindRigid, NV: 3,
		Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}, Sink: 2}
	// backflow is a→b→c plus c→a, source a, sink c: decomposable, with an
	// edge that leaves the sink and enters the source (the attachment
	// rules of an unsplit flow graph), so no petals.
	backflow = &Pattern{Name: "backflow", Kind: KindRigid, NV: 3,
		Edges: [][2]int{{0, 1}, {1, 2}, {2, 0}}, Sink: 2}
	// threePetals is a→b→a, a→c→a and a→d→e→a.
	threePetals = &Pattern{Name: "threePetals", Kind: KindRigid, NV: 5,
		Edges: [][2]int{{0, 1}, {1, 0}, {0, 2}, {2, 0}, {0, 3}, {3, 4}, {4, 0}}, LessPairs: [][2]int{{1, 2}}}
)

// flowPatterns is every rigid pattern the flow checks cover.
var flowPatterns = []*Pattern{P1, P2, P3, P4, P5, P6, cycle4, converging, chord, shortcut, backflow, threePetals}

// checkInstanceFlows requires every instance's InstanceFlow to be
// core.PreSim on the instance's flow graph, bit for bit, and SearchGB's
// Summary at 1, 2 and 4 workers, exhaustive and cut off, to be the fold of
// those flows in EnumerateGB order. The graph pipeline is the reference:
// its greedy scan walks the flow graph's Ord index (core.scan), which
// shares no code with the positional scan of the decomposable patterns.
// It returns the instance count.
func checkInstanceFlows(t *testing.T, n *tin.Network, p *Pattern) int {
	t.Helper()
	var flows []float64
	if err := EnumerateGB(n, p, func(inst *Instance) bool {
		got, err := InstanceFlow(n, p, inst, core.EngineTEG)
		if err != nil {
			t.Fatalf("%s %v: InstanceFlow: %v", p.Name, inst.V, err)
		}
		res, err := core.PreSim(n.BuildFlowGraph(inst.EdgeIDs, inst.V[p.Source], inst.V[p.Sink]), core.EngineTEG)
		if err != nil {
			t.Fatalf("%s %v: PreSim: %v", p.Name, inst.V, err)
		}
		if p.decomposable() && res.Class != core.ClassA {
			t.Fatalf("%s %v: decomposable, but PreSim says class %v", p.Name, inst.V, res.Class)
		}
		if math.Float64bits(got) != math.Float64bits(res.Flow) {
			t.Fatalf("%s %v: InstanceFlow %v (%x), PreSim %v (%x)", p.Name, inst.V, got, math.Float64bits(got), res.Flow, math.Float64bits(res.Flow))
		}
		flows = append(flows, got)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, max := range []int64{0, 1, int64(len(flows)+1) / 2} {
		want := Summary{Pattern: p.Name}
		for _, flow := range flows {
			want.Instances++
			want.TotalFlow += flow
			if max > 0 && want.Instances >= max {
				want.Truncated = true
				break
			}
		}
		for _, workers := range []int{1, 2, 4} {
			got, err := SearchGB(n, p, Options{Engine: core.EngineTEG, Workers: workers, MaxInstances: max})
			if err != nil {
				t.Fatalf("%s SearchGB: %v", p.Name, err)
			}
			if got != want || math.Float64bits(got.TotalFlow) != math.Float64bits(want.TotalFlow) {
				t.Fatalf("%s SearchGB workers=%d max=%d: %+v, fold of the instance flows %+v", p.Name, workers, max, got, want)
			}
		}
	}
	return len(flows)
}

// TestInstanceFlowBranches: each custom pattern takes the branch its edges
// call for — the positional scan, with or without petal summaries, or the
// graph pipeline — and agrees with PreSim on the instance's flow graph bit
// for bit, on a network with fractional quantities and tied timestamps.
func TestInstanceFlowBranches(t *testing.T) {
	n := fractionalNetwork(rand.New(rand.NewSource(5)), 7, 160)
	for _, c := range []struct {
		p                    *Pattern
		decomposable, petals bool
	}{
		{P2, true, false}, {P3, true, false}, {P5, true, true},
		{P4, false, false}, {P6, false, false},
		{cycle4, true, false}, {converging, true, false}, {chord, false, false},
		{shortcut, true, true}, {backflow, true, false}, {threePetals, true, true},
	} {
		if err := c.p.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := c.p.decomposable(); got != c.decomposable {
			t.Errorf("%s: decomposable() = %v, want %v", c.p.Name, got, c.decomposable)
		}
		if got := c.p.petals() != nil; got != c.petals {
			t.Errorf("%s: petals() = %v, want petals %v", c.p.Name, c.p.petals(), c.petals)
		}
		if checkInstanceFlows(t, n, c.p) == 0 {
			t.Errorf("%s: no instances; the check is vacuous", c.p.Name)
		}
	}
}

// TestDecomposableSinkOutEdges: an acyclic pattern's sink may leave by one
// edge that does not lead back to it (backflow) and stay with the
// positional scan; a sink with two outgoing edges, or with one that leads
// back to it, sends the pattern to the graph pipeline, because core.ScanRuns
// takes neither.
func TestDecomposableSinkOutEdges(t *testing.T) {
	forked := &Pattern{Name: "forked", Kind: KindRigid, NV: 3,
		Edges: [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 0}}, Sink: 1}
	looped := &Pattern{Name: "looped", Kind: KindRigid, NV: 3,
		Edges: [][2]int{{0, 1}, {1, 2}, {2, 1}}, Sink: 2}
	for _, c := range []struct {
		p    *Pattern
		want bool
	}{{backflow, true}, {forked, false}, {looped, false}} {
		if err := c.p.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := c.p.decomposable(); got != c.want {
			t.Errorf("%s: decomposable() = %v, want %v", c.p.Name, got, c.want)
		}
	}
	n := fractionalNetwork(rand.New(rand.NewSource(5)), 7, 160)
	if checkInstanceFlows(t, n, forked) == 0 {
		t.Error("forked: no instances; the check is vacuous")
	}
}

// fractionalNetwork is a dense random network on v vertices with ias
// interactions, quantities in hundredths (whose sums round, so a reordered
// sum shows in the bits) and timestamps drawn from few values (ties).
func fractionalNetwork(rng *rand.Rand, v, ias int) *tin.Network {
	nb := tin.NewBuilder(v)
	for i := 0; i < ias; i++ {
		a, b := tin.VertexID(rng.Intn(v)), tin.VertexID(rng.Intn(v))
		if a == b {
			continue
		}
		nb.AddInteraction(a, b, float64(rng.Intn(ias/4+1)), float64(1+rng.Intn(999))/100)
	}
	return nb.Finalize()
}

// FuzzInstanceFlow checks checkInstanceFlows on a random network with
// fractional quantities and tied timestamps and a pattern the input picks:
// from the catalogue or a custom one.
func FuzzInstanceFlow(f *testing.F) {
	for i := range flowPatterns {
		f.Add(int64(i), uint8(3), uint8(120), uint8(i))
	}
	f.Add(int64(99), uint8(3), uint8(255), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, numV, ias, pick uint8) {
		v := 3 + int(numV)%6
		n := fractionalNetwork(rand.New(rand.NewSource(seed)), v, int(ias))
		checkInstanceFlows(t, n, flowPatterns[int(pick)%len(flowPatterns)])
	})
}
