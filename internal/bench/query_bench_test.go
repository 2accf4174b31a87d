package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"flownet/internal/core"
	"flownet/internal/tin"
)

// Benchmarks behind the O(footprint) query path: pair-query latency as the
// network grows around a fixed footprint. The frontier-driven extractor
// walks only the adjacency of the vertices reachable between source and
// sink, so the cost of a query must track its footprint, not the network —
// these benchmarks pin that by holding the footprint constant while the
// background grows 100x.

// footV is the vertex count of the fixed footprint: a diamond DAG
// 0 -> {1,2,3} -> {4,5,6} -> {7,8} -> 9 whose pair subgraph 0->9 is
// identical in every network buildFootprintNetwork returns.
const footV = 10

// buildFootprintNetwork returns a network holding the fixed footprint plus
// `background` interactions that connect only background vertices (ids >=
// footV). No edge crosses between the two vertex populations, so the
// forward/backward reachability of the 0->9 pair — and with it the
// extracted subgraph — is byte-identical at every background size.
func buildFootprintNetwork(tb testing.TB, background int) *tin.Network {
	tb.Helper()
	numV := footV + 2 + background/50
	rng := rand.New(rand.NewSource(int64(background)))
	n := tin.NewNetwork(numV)
	layers := [][]tin.VertexID{{0}, {1, 2, 3}, {4, 5, 6}, {7, 8}, {9}}
	t := 1.0
	for l := 0; l+1 < len(layers); l++ {
		for _, from := range layers[l] {
			for _, to := range layers[l+1] {
				for k := 0; k < 3; k++ {
					n.AddInteraction(from, to, t, float64(k)+1)
					t += 0.25
				}
			}
		}
	}
	maxT := t
	for i := 0; i < background; i++ {
		from := tin.VertexID(footV + rng.Intn(numV-footV))
		to := tin.VertexID(footV + rng.Intn(numV-footV))
		if from == to {
			continue
		}
		n.AddInteraction(from, to, rng.Float64()*maxT, float64(rng.Intn(5))+1)
	}
	n.Finalize()
	return n
}

// extractPair runs the serving path's pair query (footprint included) for
// the fixture's fixed 0 -> 9 pair.
func extractPair(n *tin.Network) (*tin.Graph, bool) {
	x := n.Extract(tin.Query{Source: 0, Sink: 9, Footprint: true})
	return x.Graph, x.Ok
}

// BenchmarkPairQueryFootprintScaling runs the identical pair query — same
// source, sink, and extracted subgraph — against networks 100x apart in
// size. Flat ns/op across the sub-benchmarks is the O(footprint) claim;
// a slope is a regression back toward the O(E) edge-table scan.
func BenchmarkPairQueryFootprintScaling(b *testing.B) {
	for _, background := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("background=%d", background), func(b *testing.B) {
			n := buildFootprintNetwork(b, background)
			g, ok := extractPair(n)
			if !ok {
				b.Fatal("pair 0->9 extracts nothing")
			}
			ia := g.NumInteractions()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, ok := extractPair(n)
				if !ok || g.NumInteractions() != ia {
					b.Fatal("extraction drifted")
				}
			}
			b.ReportMetric(float64(ia), "footprint-ia/op")
		})
	}
}

// TestPairQueryCostIsFootprintBound is the acceptance check behind the
// frontier-driven extractor: the same pair query on a 100x larger network
// must cost (about) the same, and its steady state must make only the
// handful of allocations that build the result graph.
func TestPairQueryCostIsFootprintBound(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	small := buildFootprintNetwork(t, 10_000)
	large := buildFootprintNetwork(t, 1_000_000)

	// Same footprint => byte-identical subgraph and a working solve.
	gs, oks := extractPair(small)
	gl, okl := extractPair(large)
	if !oks || !okl {
		t.Fatal("pair 0->9 extracts nothing")
	}
	if gs.String() != gl.String() {
		t.Fatalf("footprint subgraphs differ across background sizes:\n%s\nvs\n%s", gs, gl)
	}
	if _, err := core.PreSim(gs, core.EngineTEG); err != nil {
		t.Fatal(err)
	}

	time := func(n *tin.Network) (best float64) {
		for i := 0; i < 5; i++ {
			r := testing.Benchmark(func(b *testing.B) {
				for j := 0; j < b.N; j++ {
					if _, ok := extractPair(n); !ok {
						b.Fatal("extraction failed")
					}
				}
			})
			if s := r.T.Seconds() / float64(r.N); best == 0 || s < best {
				best = s
			}
		}
		return best
	}
	// The same bounds hold when the large network is read through a tail:
	// 64 appended batches that touch background vertices only, so the
	// footprint — and the subgraph — are still the same.
	tailed := withTail(t, large, footV)
	if gt, ok := extractPair(tailed); !ok || gt.String() != gs.String() {
		t.Fatal("footprint subgraph differs after appends that do not touch it")
	}
	tSmall := time(small)
	for _, c := range []struct {
		what string
		n    *tin.Network
	}{{"1M", large}, {"1M + 64 appended batches", tailed}} {
		tLarge := time(c.n)
		t.Logf("pair query: %.1fµs on 10K background, %.1fµs on %s (%.2fx)",
			tSmall*1e6, tLarge*1e6, c.what, tLarge/tSmall)
		if tLarge > 2*tSmall {
			t.Errorf("pair query on the %s background took %.2fx the 10K time; extraction cost is not footprint-bound",
				c.what, tLarge/tSmall)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, ok := extractPair(c.n); !ok {
				t.Fatal("extraction failed")
			}
		})
		if allocs > 10 && !raceEnabled {
			t.Errorf("steady-state pair extraction on %s allocates %.0f objects per query, budget 10", c.what, allocs)
		}
		t.Logf("steady-state pair extraction on %s: %.0f allocs per query", c.what, allocs)
	}
}
