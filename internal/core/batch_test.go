package core

import (
	"context"
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

// TestBatchSeeds checks the end-to-end per-seed batch against individual
// extraction + PreSim with the LP as its engine (3-hop seed subgraphs are
// DAGs, where Solve must be PreSim in everything but the engine's last
// digits), including seeds with no returning-path subgraph.
func TestBatchSeeds(t *testing.T) {
	n, _, _ := batchTestGraphs(t)
	seeds := make([]tin.VertexID, n.NumVertices())
	for i := range seeds {
		seeds[i] = tin.VertexID(i)
	}
	got, err := BatchSeedsContext(context.Background(), n, seeds, tin.DefaultExtractOptions(), 8)
	if err != nil {
		t.Fatalf("BatchSeedsContext: %v", err)
	}
	if len(got) != len(seeds) {
		t.Fatalf("%d results for %d seeds", len(got), len(seeds))
	}
	okCount := 0
	for i, r := range got {
		if r.Seed != seeds[i] {
			t.Fatalf("result %d reports seed %d", i, r.Seed)
		}
		g, ok := n.ExtractSubgraph(seeds[i], tin.DefaultExtractOptions())
		if ok != r.Ok {
			t.Errorf("seed %d: Ok=%v, extraction says %v", r.Seed, r.Ok, ok)
			continue
		}
		if !ok {
			continue
		}
		okCount++
		want, err := PreSim(g, EngineLP)
		if err != nil {
			t.Fatalf("PreSim seed %d: %v", r.Seed, err)
		}
		if !feq(r.Flow, want.Flow) {
			t.Errorf("seed %d: flow %v, LP oracle %v", r.Seed, r.Flow, want.Flow)
		}
		want.Flow, want.LPVariables = r.Flow, 0
		if r.Result != want {
			t.Errorf("seed %d: %+v, want %+v", r.Seed, r.Result, want)
		}
	}
	if okCount == 0 {
		t.Errorf("no seed produced a subgraph; test vacuous")
	}
}
