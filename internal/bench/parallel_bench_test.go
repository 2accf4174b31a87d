package bench

import (
	"context"
	"testing"

	"flownet/internal/core"
	"flownet/internal/datagen"
	"flownet/internal/pattern"
	"flownet/internal/tin"
)

// The sequential-vs-parallel benchmark pairs behind the PR claim that the
// worker pool speeds the hot paths up. Run them with, e.g.:
//
//	go test ./internal/bench -bench 'Parallel|Sequential' -benchtime 3x
//
// All pairs run on a generated Bitcoin-shaped network (heavy-tailed
// degrees, long per-edge interaction sequences — the paper's hardest
// dataset for both pattern search and per-seed flow computation).
//
// The parallel variants use Workers = 0 (GOMAXPROCS), so on a single-core
// machine they intentionally degenerate to the sequential path and the
// pair measures the (near-zero) overhead of the layer instead; run on a
// multi-core machine to see the speedup itself.

func bitcoinBenchNetwork(b *testing.B) *tin.Network {
	b.Helper()
	return datagen.Bitcoin(datagen.Config{Vertices: 2000, Seed: 13})
}

func benchSearchGB(b *testing.B, workers int) {
	n := bitcoinBenchNetwork(b)
	opts := pattern.Options{Engine: core.EngineLP, Workers: workers, MaxInstances: 2000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pattern.SearchGB(n, pattern.P3, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchGBP3Sequential(b *testing.B) { benchSearchGB(b, 1) }
func BenchmarkSearchGBP3Parallel(b *testing.B)   { benchSearchGB(b, 0) }

func benchSearchPB(b *testing.B, workers int) {
	n := bitcoinBenchNetwork(b)
	tables := pattern.Precompute(n, false)
	opts := pattern.Options{Engine: core.EngineLP, Workers: workers, MaxInstances: 2000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pattern.SearchPB(n, tables, pattern.P6, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchPBP6Sequential(b *testing.B) { benchSearchPB(b, 1) }
func BenchmarkSearchPBP6Parallel(b *testing.B)   { benchSearchPB(b, 0) }

func benchBatchSeeds(b *testing.B, workers int) {
	n := bitcoinBenchNetwork(b)
	seeds := make([]tin.VertexID, n.NumVertices())
	for i := range seeds {
		seeds[i] = tin.VertexID(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BatchSeedsContext(context.Background(), n, seeds, tin.DefaultExtractOptions(), workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchSeedsSequential(b *testing.B) { benchBatchSeeds(b, 1) }
func BenchmarkBatchSeedsParallel(b *testing.B)   { benchBatchSeeds(b, 0) }

func benchBuildCorpus(b *testing.B, workers int) {
	n := bitcoinBenchNetwork(b)
	opts := DefaultCorpusOptions()
	opts.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(BuildCorpus(n, opts)) == 0 {
			b.Fatal("empty corpus")
		}
	}
}

func BenchmarkBuildCorpusSequential(b *testing.B) { benchBuildCorpus(b, 1) }
func BenchmarkBuildCorpusParallel(b *testing.B)   { benchBuildCorpus(b, 0) }
