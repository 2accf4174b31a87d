package core

import (
	"context"
	"errors"
	"testing"

	"flownet/internal/tin"
)

// TestBatchSeedsContextCancelled is the regression test for request-scoped
// cancellation: once the context is done, BatchSeedsContext must stop
// scheduling seeds and report the context's error instead of grinding
// through the whole list. (The server's POST /flow/batch passes the request
// context here, so a disconnected client aborts the remaining work.)
func TestBatchSeedsContextCancelled(t *testing.T) {
	n, seeds, _ := batchTestGraphs(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		results, err := BatchSeedsContext(ctx, n, seeds, tin.DefaultExtractOptions(), workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(results) != len(seeds) {
			t.Fatalf("workers=%d: %d result slots, want %d", workers, len(results), len(seeds))
		}
		for i, r := range results {
			if r.Ok {
				t.Fatalf("workers=%d: seed %d was solved after cancellation", workers, seeds[i])
			}
		}
	}
}
