package core

import (
	"context"

	"flownet/internal/par"
	"flownet/internal/tin"
)

// This file implements batched flow computation: answering many seeds on a
// bounded worker pool. It is safe because every seed's extraction is its
// own and the only shared state, teg's pool, hands each solve arrays no
// other holds — see the package comment's Concurrency section.
// Results are returned in input order and each seed's Result is
// byte-identical to what a sequential loop would produce, since the seeds
// never interact.

// SeedResult is one BatchSeedsContext outcome: the seed vertex, whether a
// flow subgraph existed around it, and — if so — what Solve answered.
type SeedResult struct {
	Seed tin.VertexID
	// Ok is false when the seed has no returning-path subgraph (or the
	// subgraph exceeded the extraction size cap); Result is zero then.
	Ok bool
	Result
}

// BatchSeedsContext runs the Section 6.2 per-seed experiment concurrently:
// every seed is answered exactly as /flow answers it alone — the seed query
// of Extract (Figure 10; it only reads the finalized network, so concurrent
// extraction is safe) asking for its smallest form (Query.Residue: a
// class-A seed's runs, else its graph), then SolveExtraction, which owns
// that graph. Each Result is Solve's on the seed's whole graph. Results are
// in seed order, identical to a sequential loop. The returned error is
// ctx's if it was cancelled (the results are partial then), else nil.
//
// Every worker checks ctx before starting a seed, so once it is cancelled
// (a client disconnected, a deadline passed) the remaining seeds are
// skipped; seeds in flight run to completion — the flow computation is not
// interruptible — so at most one subgraph per worker is wasted.
func BatchSeedsContext(ctx context.Context, n *tin.Network, seeds []tin.VertexID, extract tin.ExtractOptions, workers int) ([]SeedResult, error) {
	results := make([]SeedResult, len(seeds))
	par.ForEach(par.Workers(workers), len(seeds), func(i int) {
		results[i].Seed = seeds[i]
		if ctx.Err() != nil {
			return
		}
		x := n.Extract(tin.Query{Source: seeds[i], Sink: seeds[i], ExtractOptions: extract, Residue: true})
		if !x.Ok {
			return
		}
		results[i].Ok = true
		results[i].Result = SolveExtraction(x)
	})
	return results, ctx.Err()
}
