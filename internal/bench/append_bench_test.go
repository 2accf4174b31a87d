package bench

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"flownet/internal/tin"
)

// Guards behind the O(batch) ingest path: an append derives the next
// version of the network over the same base image, so its cost must track
// the batch, not the network. The fixture is the footprint network of
// query_bench_test.go; the traffic is the load benchmark's — 32 items with
// uniform endpoints, so (on the large network) every item opens an edge.

// uniformBatches returns a generator of 32-item batches with endpoints
// uniform over n's vertices from lo up (footV keeps them off the footprint
// fixture's diamond) and timestamps that keep increasing from n.MaxTime().
func uniformBatches(n *tin.Network, lo, seed int64) func() []tin.BatchItem {
	rng := rand.New(rand.NewSource(seed))
	span, t := int64(n.NumVertices())-lo, n.MaxTime()
	return func() []tin.BatchItem {
		items := make([]tin.BatchItem, 32)
		for i := range items {
			t++
			from, to := rng.Int63n(span), rng.Int63n(span)
			if from == to {
				to = (to + 1) % span
			}
			items[i] = tin.BatchItem{From: tin.VertexID(lo + from), To: tin.VertexID(lo + to), Time: t, Qty: 1}
		}
		return items
	}
}

// withTail returns n extended by 64 such batches: a version carrying a tail
// of 2048 interactions (half of what triggers a fold) over n's base. n
// itself is left as it was.
func withTail(tb testing.TB, n *tin.Network, lo int64) *tin.Network {
	tb.Helper()
	next := uniformBatches(n, lo, 2)
	for i := 0; i < 64; i++ {
		var err error
		if n, _, _, err = n.WithBatch(next()); err != nil {
			tb.Fatal(err)
		}
	}
	return n
}

// appendBatches appends count uniform batches (endpoints from lo up) to n
// and returns how long each took.
func appendBatches(tb testing.TB, n *tin.Network, lo int64, count int) []time.Duration {
	tb.Helper()
	next := uniformBatches(n, lo, 1)
	took := make([]time.Duration, count)
	for i := range took {
		items := next()
		start := time.Now()
		if _, err := n.AppendBatch(items); err != nil {
			tb.Fatal(err)
		}
		took[i] = time.Since(start)
	}
	return took
}

// buildSameEdgesNetwork returns a network of the load benchmark's shape —
// 6000 vertices, 8000 distinct edges, the same ones whatever the size — with
// the given number of interactions spread over them: two sizes differ in
// the arena only, not in the edge table, adjacency or pair index.
func buildSameEdgesNetwork(tb testing.TB, interactions int) *tin.Network {
	tb.Helper()
	const numV, numE = 6000, 8000
	rng := rand.New(rand.NewSource(7))
	b := tin.NewBuilder(numV)
	type pair struct{ from, to tin.VertexID }
	var pairs []pair
	seen := make(map[pair]bool, numE)
	for len(pairs) < numE {
		p := pair{tin.VertexID(rng.Intn(numV)), tin.VertexID(rng.Intn(numV))}
		if p.from == p.to || seen[p] {
			continue
		}
		seen[p] = true
		b.AddInteraction(p.from, p.to, rng.Float64(), 1)
		pairs = append(pairs, p)
	}
	for i := numE; i < interactions; i++ {
		p := pairs[rng.Intn(numE)]
		b.AddInteraction(p.from, p.to, rng.Float64(), float64(rng.Intn(5))+1)
	}
	return b.Finalize()
}

// TestAppendCostIsBatchBound is the acceptance check behind versioned
// networks: the same 32-item append on a 100x larger network must cost the
// same between folds, and well under a millisecond. When an append rebuilt
// the arena it cost 1.7 ms on the 10 K background network and 248 ms on the
// 1 M one (142x); deriving a version costs about 35 us and 80 us there.
//
// The 2x bound is asserted where only the interactions grow 100x (same
// vertices, same edges): nothing an append touches is larger. On the
// background networks vertices and edges grow 100x too (1 M edges over 20 K
// vertices, ~100 MB), and what is left of the ratio there is memory
// latency, not work: 64 uniformly random endpoints land in adjacency, slot
// and pair-index pages that the small network keeps in cache and the large
// one does not — 2.1-2.8x at every fold threshold tried, so that pair is
// held to the absolute bound and to 4x.
func TestAppendCostIsBatchBound(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const batches = 1000
	// The typical append between folds: the best median over five runs of
	// 200 batches (a fold, one batch in 128, never reaches a median).
	measure := func(n *tin.Network, lo int64) (between, amortised time.Duration) {
		ia := n.NumInteractions()
		took := appendBatches(t, n, lo, batches)
		if got := n.NumInteractions(); got != ia+32*batches {
			t.Fatalf("%d interactions after %d batches of 32 on %d, want %d", got, batches, ia, ia+32*batches)
		}
		var total time.Duration
		for _, d := range took {
			total += d
		}
		for run := 0; run < 5; run++ {
			chunk := slices.Clone(took[run*batches/5 : (run+1)*batches/5])
			slices.Sort(chunk)
			if m := chunk[len(chunk)/2]; between == 0 || m < between {
				between = m
			}
		}
		return between, total / batches
	}
	for _, c := range []struct {
		what         string
		small, large *tin.Network
		lo           int64
		ratio        time.Duration
	}{
		{"10K and 1M interactions on the same 8000 edges",
			buildSameEdgesNetwork(t, 10_000), buildSameEdgesNetwork(t, 1_000_000), 0, 2},
		{"10K and 1M background (vertices and edges grow too)",
			buildFootprintNetwork(t, 10_000), buildFootprintNetwork(t, 1_000_000), footV, 4},
	} {
		small, smallAll := measure(c.small, c.lo)
		large, largeAll := measure(c.large, c.lo)
		t.Logf("append of 32, %s: %v and %v (%.2fx) between folds; %v and %v amortised over %d batches, folds included",
			c.what, small, large, float64(large)/float64(small), smallAll, largeAll, batches)
		if raceEnabled {
			continue // the detector's per-access cost swamps what is measured here
		}
		if large > c.ratio*small {
			t.Errorf("%s: the large network took %.2fx the small one's time, bound %dx; deriving a version is not batch-bound",
				c.what, float64(large)/float64(small), c.ratio)
		}
		if large >= time.Millisecond {
			t.Errorf("%s: an append on the large network took %v between folds, want well under 1ms", c.what, large)
		}
	}
}

// TestStatsCostIsConstant guards GET /stats and /networks, which report
// Network.Stats per request: AvgQty used to sum the whole arena inside the
// pin (0.8 ms at 542 K interactions, 2.8 ms at 1.85 M). The quantity sum
// now rides the version — scanned once per base, kept by the append for the
// tail — so Stats on a 100x larger network costs the same, on a version
// with a tail too, and agrees with the scan.
func TestStatsCostIsConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	scan := func(n *tin.Network) float64 {
		var s float64
		for e := 0; e < n.NumEdges(); e++ {
			s += n.Edge(tin.EdgeID(e)).TotalQty()
		}
		return s / float64(n.NumInteractions())
	}
	cost := func(n *tin.Network) (best float64) {
		if got, want := n.Stats().AvgQty, scan(n); got < want*(1-1e-9) || got > want*(1+1e-9) {
			t.Fatalf("AvgQty %v, a scan of the interactions gives %v", got, want)
		}
		const calls = 1000
		for i := 0; i < 5; i++ {
			start := time.Now()
			for j := 0; j < calls; j++ {
				if n.Stats().Interactions == 0 {
					t.Fatal("empty network")
				}
			}
			if s := time.Since(start).Seconds() / calls; best == 0 || s < best {
				best = s
			}
		}
		return best
	}
	small := cost(buildFootprintNetwork(t, 10_000))
	large := buildFootprintNetwork(t, 1_000_000)
	for what, n := range map[string]*tin.Network{"1M": large, "1M + 64 appended batches": withTail(t, large, footV)} {
		c := cost(n)
		t.Logf("Stats: %.0fns on 10K background, %.0fns on %s", small*1e9, c*1e9, what)
		// Both sides are a few nanoseconds, where a factor of two is noise;
		// a scan of the large network costs milliseconds.
		if c > 2*small && c > 1e-6 && !raceEnabled {
			t.Errorf("Stats on the %s background costs %.0fns, %.1fx the 10K network's; it scans again", what, c*1e9, c/small)
		}
	}
}
