package bench

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"flownet/internal/core"
	"flownet/internal/datagen"
	"flownet/internal/tin"
)

// Guards behind the O(footprint) query path: pair-query latency as the
// network grows around a fixed footprint. The frontier-driven extractor
// walks only the adjacency of the vertices reachable between source and
// sink, so the cost of a query must track its footprint, not the network —
// TestPairQueryCostIsFootprintBound pins that by holding the footprint
// constant while the background grows 100x.

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
	b := tin.NewBuilder(numV)
	layers := [][]tin.VertexID{{0}, {1, 2, 3}, {4, 5, 6}, {7, 8}, {9}}
	t := 1.0
	for l := 0; l+1 < len(layers); l++ {
		for _, from := range layers[l] {
			for _, to := range layers[l+1] {
				for k := 0; k < 3; k++ {
					b.AddInteraction(from, to, t, float64(k)+1)
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
		b.AddInteraction(from, to, rng.Float64()*maxT, float64(rng.Intn(5))+1)
	}
	return b.Finalize()
}

// extractPair runs the pair query (footprint included) for the fixture's
// fixed 0 -> 9 pair.
func extractPair(n *tin.Network) (*tin.Graph, bool) {
	x := n.Extract(tin.Query{Source: 0, Sink: 9, Footprint: true})
	return x.Graph, x.Ok
}

// extractPairResidue is extractPair as the server asks it, residue
// included. The fixture is a DAG, so the answer is the whole instance.
func extractPairResidue(n *tin.Network) (*tin.Graph, bool) {
	x := n.Extract(tin.Query{Source: 0, Sink: 9, Footprint: true, Residue: true})
	return x.Graph, x.Ok && !x.Residue
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
	for _, n := range []*tin.Network{small, large} {
		if g, ok := extractPairResidue(n); !ok || g.String() != gs.String() {
			t.Fatal("the residue query does not answer the acyclic fixture whole")
		}
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
		for _, extract := range []func(*tin.Network) (*tin.Graph, bool){extractPair, extractPairResidue} {
			allocs := testing.AllocsPerRun(20, func() {
				if _, ok := extract(c.n); !ok {
					t.Fatal("extraction failed")
				}
			})
			if allocs > pairAllocBudget && !raceEnabled {
				t.Errorf("steady-state pair extraction on %s allocates %.0f objects per query, budget %d", c.what, allocs, pairAllocBudget)
			}
			t.Logf("steady-state pair extraction on %s: %.0f allocs per query", c.what, allocs)
		}
	}
}

// pairAllocBudget bounds the objects a steady-state pair extraction
// allocates: the result graph's blocks and the footprint.
const pairAllocBudget = 10

// coldResidueBudget bounds the bytes one cyclic residue extraction on the
// pair_heavy corpus shape allocates on a cold scratch. The eight guarded
// pairs take 0.20–0.43 MB: the marks and labels by vertex, the reach lists
// and heaps, and the residue. An int32 array sized by the instance's ~44 K
// edges adds 0.18 MB, which the largest of them cannot absorb; the
// per-edge scratch the labelling kept before it read the network's
// adjacency took 3.2–4.1 MB.
const coldResidueBudget = 512 << 10

// TestPairResidueIsLiveBound guards the served path of a cyclic pair on the
// pair_heavy corpus shape — Prosper, 4 000 vertices, generator seed 1, read
// back through the text codec as flownetd loads it, pairs drawn as
// benchmark/ops.go draws them. Each such instance is the whole giant
// component (~44 K interactions, cyclic); its residue must lay out at most a
// twentieth of them, a steady-state residue extraction must allocate no
// more objects than any pair extraction and at most a tenth of the bytes
// the whole instance costs, and one on a cold scratch at most
// coldResidueBudget bytes. Counts, not clock.
func TestPairResidueIsLiveBound(t *testing.T) {
	var text bytes.Buffer
	if err := tin.WriteNetwork(&text, datagen.Prosper(datagen.Config{Vertices: 4000, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	n, err := tin.ReadNetwork(&text)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var cyclic []tin.Query
	for draws := 0; len(cyclic) < 8; draws++ {
		if draws == 64 {
			t.Fatalf("%d of %d drawn pairs are cyclic", len(cyclic), draws)
		}
		a := rng.Intn(n.NumVertices())
		b := rng.Intn(n.NumVertices() - 1)
		if b >= a {
			b++
		}
		q := tin.Query{Source: tin.VertexID(a), Sink: tin.VertexID(b), Footprint: true, Residue: true}
		if rng.Float64() < 0.25 {
			from := rng.Float64() * 0.5 * n.MaxTime()
			to := from + (0.25+0.25*rng.Float64())*n.MaxTime()
			q.Window = &tin.TimeWindow{From: float64(int64(from)), To: float64(int64(to))}
		}
		x := n.Extract(q)
		if !x.Ok || !x.Residue {
			continue
		}
		cyclic = append(cyclic, q)
		t.Logf("pair %d->%d window %v: %d of %d interactions live", a, b, q.Window, x.Graph.NumInteractions(), x.Interactions)
		if x.Graph.NumInteractions() > x.Interactions/20 {
			t.Errorf("pair %d->%d: the residue lays out %d of %d interactions, want at most a twentieth",
				a, b, x.Graph.NumInteractions(), x.Interactions)
		}
	}

	if raceEnabled {
		return // no steady state to count under the race detector
	}
	q := cyclic[0]
	extract := func(q tin.Query) func() {
		return func() {
			if !n.Extract(q).Ok {
				t.Fatal("extraction failed")
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, extract(q)); allocs > pairAllocBudget {
		t.Errorf("steady-state residue extraction allocates %.0f objects per query, budget %d", allocs, pairAllocBudget)
	}
	// On a cold scratch — two collections empty the pool and its victim
	// cache — a residue extraction allocates its scratch too: arrays sized
	// by the network's vertices and by the residue, none by the instance's
	// edges.
	for _, q := range cyclic {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		extract(q)()
		runtime.ReadMemStats(&after)
		cold := after.TotalAlloc - before.TotalAlloc
		t.Logf("pair %d->%d on a cold scratch: %d bytes", q.Source, q.Sink, cold)
		if cold > coldResidueBudget {
			t.Errorf("pair %d->%d: a residue extraction on a cold scratch allocates %d bytes, budget %d",
				q.Source, q.Sink, cold, coldResidueBudget)
		}
	}
	bytesPerOp := func(q tin.Query) int64 {
		run := extract(q)
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run()
			}
		}).AllocedBytesPerOp()
	}
	whole := q
	whole.Residue = false
	residueBytes, wholeBytes := bytesPerOp(q), bytesPerOp(whole)
	t.Logf("steady-state extraction: %d bytes per residue, %d per whole instance", residueBytes, wholeBytes)
	if residueBytes > wholeBytes/10 {
		t.Errorf("a residue extraction allocates %d bytes, the whole instance %d; want at most a tenth", residueBytes, wholeBytes)
	}
}
