package core

import (
	"context"

	"flownet/internal/par"
	"flownet/internal/tin"
)

// This file implements batched flow computation: running the Pre/PreSim
// pipeline over many independent flow instances on a bounded worker pool.
// It is safe because nothing in this package keeps hidden shared state —
// see the package comment's Concurrency section. Results are returned in
// input order and each item's Result is byte-identical to what a
// sequential loop over Pre/PreSim would produce, since the items never
// interact.

// BatchPreSim runs the complete PreSim pipeline on every graph, on at most
// par.Workers(workers) goroutines (workers = 0 selects GOMAXPROCS, 1 runs
// sequentially). Results are returned in input order. Every item is
// attempted even if another fails; the returned error is the error of the
// lowest-indexed failed item (its Result slot is zero), or nil.
func BatchPreSim(gs []*tin.Graph, engine Engine, workers int) ([]Result, error) {
	return batch(gs, engine, workers, true)
}

// BatchPre is BatchPreSim without the Algorithm 2 simplification step
// (the paper's "Pre" method).
func BatchPre(gs []*tin.Graph, engine Engine, workers int) ([]Result, error) {
	return batch(gs, engine, workers, false)
}

func batch(gs []*tin.Graph, engine Engine, workers int, simplify bool) ([]Result, error) {
	results := make([]Result, len(gs))
	errs := make([]error, len(gs))
	par.ForEach(par.Workers(workers), len(gs), func(i int) {
		r, err := pipeline(gs[i], engine, simplify)
		if err != nil {
			errs[i] = err
			return
		}
		results[i] = r
	})
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// SeedResult is one BatchSeeds outcome: the seed vertex, whether a flow
// subgraph existed around it, and — if so — the pipeline result.
type SeedResult struct {
	Seed tin.VertexID
	// Ok is false when the seed has no returning-path subgraph (or the
	// subgraph exceeded the extraction size cap); Result is zero then.
	Ok bool
	Result
}

// BatchSeeds runs the Section 6.2 per-seed experiment concurrently: for
// every seed vertex it extracts the returning-path flow subgraph
// (Figure 10) from the shared network — ExtractSubgraph only reads the
// finalized network, so concurrent extraction is safe — and solves it with
// the PreSim pipeline. Results are in seed order, identical to a
// sequential loop. The returned error is the lowest-indexed pipeline
// failure, or nil.
func BatchSeeds(n *tin.Network, seeds []tin.VertexID, extract tin.ExtractOptions, engine Engine, workers int) ([]SeedResult, error) {
	return BatchSeedsContext(context.Background(), n, seeds, extract, engine, workers)
}

// BatchSeedsContext is BatchSeeds with cooperative cancellation: every
// worker checks ctx before starting a seed, so once ctx is cancelled (a
// client disconnected, a deadline passed) the remaining seeds are skipped
// and the call returns ctx's error. Seeds already in flight run to
// completion — the flow pipeline itself is not interruptible — which bounds
// the post-cancellation work to at most one subgraph per worker.
func BatchSeedsContext(ctx context.Context, n *tin.Network, seeds []tin.VertexID, extract tin.ExtractOptions, engine Engine, workers int) ([]SeedResult, error) {
	results := make([]SeedResult, len(seeds))
	errs := make([]error, len(seeds))
	par.ForEach(par.Workers(workers), len(seeds), func(i int) {
		results[i].Seed = seeds[i]
		if ctx.Err() != nil {
			return
		}
		g, ok := n.ExtractSubgraph(seeds[i], extract)
		if !ok {
			return
		}
		r, err := pipeline(g, engine, true)
		if err != nil {
			errs[i] = err
			return
		}
		results[i].Ok = true
		results[i].Result = r
	})
	if err := ctx.Err(); err != nil {
		return results, err
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
