// Benchmarks regenerating the paper's evaluation, one benchmark family per
// table/figure (see EXPERIMENTS.md for the mapping and full-scale numbers;
// `go test -bench` uses reduced dataset sizes to stay minute-scale):
//
//	BenchmarkTable4Generation    dataset generation (Table 4 inputs)
//	BenchmarkTable5Extraction    §6.2 subgraph corpus extraction (Table 5)
//	BenchmarkTable6BitcoinFlow   Greedy/LP/Pre/PreSim per subgraph (Table 6)
//	BenchmarkTable7CTU13Flow     idem on CTU-13 (Table 7)
//	BenchmarkTable8ProsperFlow   idem on Prosper Loans (Table 8)
//	BenchmarkFigure11            methods × interaction buckets (Figure 11)
//	BenchmarkTable9BitcoinPatterns   GB vs PB per pattern (Table 9)
//	BenchmarkTable10CTU13Patterns    idem (Table 10)
//	BenchmarkTable11ProsperPatterns  idem, incl. chain patterns (Table 11)
//	BenchmarkAblation*           engine and solver ablations (DESIGN.md §6)
package flownet_test

import (
	"sync"
	"testing"

	"flownet/internal/bench"
	"flownet/internal/core"
	"flownet/internal/datagen"
	"flownet/internal/pattern"
	"flownet/internal/tin"
)

// Benchmark-scale dataset configurations: large enough to exhibit the
// paper's class/bucket structure, small enough for minute-scale runs.
var benchCfg = map[datagen.Dataset]datagen.Config{
	datagen.DatasetBitcoin: {Vertices: 1500, Seed: 1},
	datagen.DatasetCTU13:   {Vertices: 2500, Seed: 1},
	datagen.DatasetProsper: {Vertices: 700, Seed: 1},
}

type fixture struct {
	net    *tin.Network
	corpus []bench.Subgraph
	byCls  [3][]bench.Subgraph
	byBkt  [3][]bench.Subgraph
}

var (
	fixtures   = map[datagen.Dataset]*fixture{}
	fixtureMu  sync.Mutex
	fixtureGen = map[datagen.Dataset]*sync.Once{
		datagen.DatasetBitcoin: {},
		datagen.DatasetCTU13:   {},
		datagen.DatasetProsper: {},
	}
)

func getFixture(b *testing.B, d datagen.Dataset) *fixture {
	b.Helper()
	fixtureGen[d].Do(func() {
		n := datagen.Generate(d, benchCfg[d])
		opts := bench.DefaultCorpusOptions()
		opts.Extract.MaxInteractions = 4000
		corpus := bench.BuildCorpus(n, opts)
		f := &fixture{net: n, corpus: corpus}
		for _, s := range corpus {
			f.byCls[s.Class] = append(f.byCls[s.Class], s)
			bkt := 2
			switch ia := s.G.NumInteractions(); {
			case ia < 100:
				bkt = 0
			case ia <= 1000:
				bkt = 1
			}
			f.byBkt[bkt] = append(f.byBkt[bkt], s)
		}
		fixtureMu.Lock()
		fixtures[d] = f
		fixtureMu.Unlock()
	})
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	return fixtures[d]
}

func BenchmarkTable4Generation(b *testing.B) {
	for _, d := range datagen.AllDatasets {
		b.Run(d.String(), func(b *testing.B) {
			cfg := benchCfg[d]
			cfg.Vertices /= 2 // generation benchmark only; keep it light
			for i := 0; i < b.N; i++ {
				n := datagen.Generate(d, cfg)
				if n.NumInteractions() == 0 {
					b.Fatal("empty network")
				}
			}
		})
	}
}

func BenchmarkTable5Extraction(b *testing.B) {
	for _, d := range datagen.AllDatasets {
		b.Run(d.String(), func(b *testing.B) {
			f := getFixture(b, d)
			opts := tin.DefaultExtractOptions()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seed := tin.VertexID(i % f.net.NumVertices())
				f.net.ExtractSubgraph(seed, opts)
			}
		})
	}
}

// flowMethodBench times one flow method averaged across a subgraph set.
func flowMethodBench(b *testing.B, subs []bench.Subgraph, maxIA int, run func(*tin.Graph)) {
	b.Helper()
	var pool []*tin.Graph
	for _, s := range subs {
		if maxIA == 0 || s.G.NumInteractions() <= maxIA {
			pool = append(pool, s.G)
		}
	}
	if len(pool) == 0 {
		b.Skip("no subgraphs in this cell")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(pool[i%len(pool)])
	}
}

func benchFlowTable(b *testing.B, d datagen.Dataset) {
	f := getFixture(b, d)
	b.Run("Greedy", func(b *testing.B) {
		flowMethodBench(b, f.corpus, 0, func(g *tin.Graph) { core.Greedy(g) })
	})
	b.Run("LP", func(b *testing.B) {
		flowMethodBench(b, f.corpus, 800, func(g *tin.Graph) {
			if _, err := core.MaxFlowLP(g); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("Pre", func(b *testing.B) {
		flowMethodBench(b, f.corpus, 0, func(g *tin.Graph) {
			if _, err := core.Pre(g, core.EngineLP); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("PreSim", func(b *testing.B) {
		flowMethodBench(b, f.corpus, 0, func(g *tin.Graph) {
			if _, err := core.PreSim(g, core.EngineLP); err != nil {
				b.Fatal(err)
			}
		})
	})
}

func BenchmarkTable6BitcoinFlow(b *testing.B) { benchFlowTable(b, datagen.DatasetBitcoin) }
func BenchmarkTable7CTU13Flow(b *testing.B)   { benchFlowTable(b, datagen.DatasetCTU13) }
func BenchmarkTable8ProsperFlow(b *testing.B) { benchFlowTable(b, datagen.DatasetProsper) }

func BenchmarkFigure11(b *testing.B) {
	f := getFixture(b, datagen.DatasetBitcoin)
	buckets := []string{"lt100", "100to1000", "gt1000"}
	for bi, name := range buckets {
		subs := f.byBkt[bi]
		b.Run(name+"/Greedy", func(b *testing.B) {
			flowMethodBench(b, subs, 0, func(g *tin.Graph) { core.Greedy(g) })
		})
		b.Run(name+"/LP", func(b *testing.B) {
			flowMethodBench(b, subs, 1500, func(g *tin.Graph) {
				if _, err := core.MaxFlowLP(g); err != nil {
					b.Fatal(err)
				}
			})
		})
		b.Run(name+"/Pre", func(b *testing.B) {
			flowMethodBench(b, subs, 0, func(g *tin.Graph) {
				if _, err := core.Pre(g, core.EngineLP); err != nil {
					b.Fatal(err)
				}
			})
		})
		b.Run(name+"/PreSim", func(b *testing.B) {
			flowMethodBench(b, subs, 0, func(g *tin.Graph) {
				if _, err := core.PreSim(g, core.EngineLP); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// benchPatternTable runs GB vs PB for each pattern of a dataset's table.
// Searches are capped at 3000 instances, the paper's own cut-off for its
// hardest cells (P4*, P6* in Table 9).
func benchPatternTable(b *testing.B, d datagen.Dataset, withChains bool) {
	f := getFixture(b, d)
	tables := pattern.Precompute(f.net, withChains)
	opts := pattern.Options{Engine: core.EngineLP, MaxInstances: 3000}
	for _, p := range pattern.Catalogue {
		if !withChains && (p == pattern.P1 || p == pattern.RP1) {
			continue
		}
		b.Run(p.Name+"/GB", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pattern.SearchGB(f.net, p, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(p.Name+"/PB", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pattern.SearchPB(f.net, tables, p, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("Precompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pattern.Precompute(f.net, withChains)
		}
	})
}

func BenchmarkTable9BitcoinPatterns(b *testing.B) {
	benchPatternTable(b, datagen.DatasetBitcoin, false)
}

func BenchmarkTable10CTU13Patterns(b *testing.B) {
	benchPatternTable(b, datagen.DatasetCTU13, false)
}

func BenchmarkTable11ProsperPatterns(b *testing.B) {
	benchPatternTable(b, datagen.DatasetProsper, true)
}

// BenchmarkAblationEngine compares the two exact engines on class C
// subgraphs (DESIGN.md §6: LP as in the paper vs the time-expanded Dinic).
func BenchmarkAblationEngine(b *testing.B) {
	f := getFixture(b, datagen.DatasetBitcoin)
	subs := f.byCls[core.ClassC]
	b.Run("PreSimLP", func(b *testing.B) {
		flowMethodBench(b, subs, 0, func(g *tin.Graph) {
			if _, err := core.PreSim(g, core.EngineLP); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("PreSimTEG", func(b *testing.B) {
		flowMethodBench(b, subs, 0, func(g *tin.Graph) {
			if _, err := core.PreSim(g, core.EngineTEG); err != nil {
				b.Fatal(err)
			}
		})
	})
}

// BenchmarkAblationReductions isolates the cost of the two reduction
// passes themselves (they must stay linear in the interaction count).
func BenchmarkAblationReductions(b *testing.B) {
	f := getFixture(b, datagen.DatasetBitcoin)
	b.Run("Preprocess", func(b *testing.B) {
		flowMethodBench(b, f.corpus, 0, func(g *tin.Graph) {
			h := g.Clone()
			if _, err := core.Preprocess(h); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("Simplify", func(b *testing.B) {
		flowMethodBench(b, f.corpus, 0, func(g *tin.Graph) {
			h := g.Clone()
			core.Simplify(h)
		})
	})
	b.Run("SolubilityCheck", func(b *testing.B) {
		flowMethodBench(b, f.corpus, 0, func(g *tin.Graph) { core.GreedySoluble(g) })
	})
}
