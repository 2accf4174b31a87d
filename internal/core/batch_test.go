package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"flownet/internal/datagen"
	"flownet/internal/tin"
)

// batchTestGraphs extracts a small §6.2 subgraph corpus to batch over.
func batchTestGraphs(t *testing.T) (*tin.Network, []tin.VertexID, []*tin.Graph) {
	t.Helper()
	n := datagen.Prosper(datagen.Config{Vertices: 200, Seed: 9})
	var seeds []tin.VertexID
	var gs []*tin.Graph
	for v := 0; v < n.NumVertices() && len(gs) < 40; v++ {
		if g, ok := n.ExtractSubgraph(tin.VertexID(v), tin.DefaultExtractOptions()); ok {
			seeds = append(seeds, tin.VertexID(v))
			gs = append(gs, g)
		}
	}
	if len(gs) < 5 {
		t.Fatalf("only %d subgraphs extracted", len(gs))
	}
	return n, seeds, gs
}

// TestBatchSeeds checks the end-to-end per-seed batch, unwindowed and
// under three windows, against the seed's whole graph from ExtractSubgraph:
// bit for bit against Solve — flow bits, class, engine use, the Pre/Sim
// statistics, and the sizes the extraction reports — and within the
// tolerance against PreSim with the LP as its engine (3-hop seed subgraphs
// are DAGs, where Solve must be PreSim in everything but the engine's last
// digits), including seeds with no returning-path subgraph. The batch
// extracts in the smallest form (class-A seeds as runs) and hands its
// graphs to SolveExtraction, which reduces them in place and solves on the
// engine's pooled arrays; at 1 and 4 workers the results must be the same.
// The narrowest window empties some admitted runs, class-A seeds' among
// them, which the structural test must count as Lemma 2 does after
// DropEmptyEdges.
func TestBatchSeeds(t *testing.T) {
	n, _, _ := batchTestGraphs(t)
	seeds := make([]tin.VertexID, n.NumVertices())
	for i := range seeds {
		seeds[i] = tin.VertexID(i)
	}
	end := n.MaxTime()
	runs, emptied := 0, 0 // class-A seeds answered as runs, and with a run the window emptied
	for _, w := range []*tin.TimeWindow{nil, {From: 0, To: end / 2}, {From: end / 4, To: end * 3 / 4}, {From: end / 3, To: end * 2 / 5}} {
		name := "unwindowed"
		if w != nil {
			name = fmt.Sprintf("window [%g,%g]", w.From, w.To)
		}
		t.Run(name, func(t *testing.T) {
			opts := tin.DefaultExtractOptions()
			opts.Window = w
			got, err := BatchSeedsContext(context.Background(), n, seeds, opts, 1)
			if err != nil {
				t.Fatalf("BatchSeedsContext: %v", err)
			}
			if len(got) != len(seeds) {
				t.Fatalf("%d results for %d seeds", len(got), len(seeds))
			}
			four, err := BatchSeedsContext(context.Background(), n, seeds, opts, 4)
			if err != nil {
				t.Fatalf("BatchSeedsContext at 4 workers: %v", err)
			}
			okCount := 0
			for i, r := range got {
				if r.Seed != seeds[i] {
					t.Fatalf("result %d reports seed %d", i, r.Seed)
				}
				if f := four[i]; f != r || math.Float64bits(f.Flow) != math.Float64bits(r.Flow) {
					t.Errorf("seed %d: %+v at 4 workers, %+v at 1", r.Seed, f, r)
				}
				g, ok := n.ExtractSubgraph(seeds[i], opts)
				if ok != r.Ok {
					t.Errorf("seed %d: Ok=%v, extraction says %v", r.Seed, r.Ok, ok)
					continue
				}
				if !ok {
					continue
				}
				okCount++
				x := n.Extract(tin.Query{Source: seeds[i], Sink: seeds[i], ExtractOptions: opts, Residue: true})
				if x.Graph == nil {
					runs++
				}
				if w != nil {
					if whole, _ := n.ExtractSubgraph(seeds[i], tin.DefaultExtractOptions()); whole.NumLiveEdges() > g.NumLiveEdges() && x.Graph == nil {
						emptied++
					}
				}
				if x.Vertices != g.NumLiveVertices() || x.Edges != g.NumLiveEdges() || x.Interactions != g.NumInteractions() {
					t.Errorf("seed %d: extraction reports %d/%d/%d, graph has %d/%d/%d", r.Seed,
						x.Vertices, x.Edges, x.Interactions, g.NumLiveVertices(), g.NumLiveEdges(), g.NumInteractions())
				}
				want := Solve(g)
				if r.Result != want || math.Float64bits(r.Flow) != math.Float64bits(want.Flow) {
					t.Errorf("seed %d: %+v, Solve on the whole graph %+v", r.Seed, r.Result, want)
				}
				if (x.Graph == nil) != (want.Class == ClassA) {
					t.Errorf("seed %d: class %v answered as runs=%v", r.Seed, want.Class, x.Graph == nil)
				}
				lp, err := PreSim(g, EngineLP)
				if err != nil {
					t.Fatalf("PreSim seed %d: %v", r.Seed, err)
				}
				if !feq(r.Flow, lp.Flow) {
					t.Errorf("seed %d: flow %v, LP oracle %v", r.Seed, r.Flow, lp.Flow)
				}
				lp.Flow, lp.LPVariables = r.Flow, 0
				if r.Result != lp {
					t.Errorf("seed %d: %+v, want %+v", r.Seed, r.Result, lp)
				}
			}
			t.Logf("%d seeds with a subgraph", okCount)
			if okCount == 0 {
				t.Errorf("no seed produced a subgraph; test vacuous")
			}
		})
	}
	t.Logf("%d class-A seeds answered as runs, %d of them with a run the window emptied", runs, emptied)
	if runs == 0 || emptied == 0 {
		t.Errorf("no seed answered as runs, or none with an emptied run; test vacuous")
	}
}
