package tin

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// buildNetwork finalizes a fresh network containing the given items.
func buildNetwork(t *testing.T, numV int, items []BatchItem) *Network {
	t.Helper()
	b := NewBuilder(numV)
	for _, it := range items {
		b.AddInteraction(it.From, it.To, it.Time, it.Qty)
	}
	return b.Finalize()
}

// withBatch derives the version of n extended by the time-ordered items.
func withBatch(t *testing.T, n *Network, items ...BatchItem) *Network {
	t.Helper()
	next, _, _, err := n.WithBatch(items)
	if err != nil {
		t.Fatalf("WithBatch(%v): %v", items, err)
	}
	return next
}

// networkText renders a network in the canonical interaction text format.
func networkText(t *testing.T, n *Network) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteNetwork(&buf, n); err != nil {
		t.Fatalf("WriteNetwork: %v", err)
	}
	return buf.String()
}

// TestAppendMatchesRebuild is the core streaming property: finalizing a
// prefix and appending the suffix in time order must be indistinguishable
// from building the whole network at once — byte-identical canonical text,
// identical stats, identical MaxTime.
func TestAppendMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const numV = 12
	var items []BatchItem
	tm := 0.0
	for i := 0; i < 120; i++ {
		tm += rng.Float64() // non-decreasing, occasionally tied after rounding
		if i%7 == 0 {
			// exact tie with the previous item
			items = append(items, BatchItem{From: VertexID(rng.Intn(numV)), To: VertexID(rng.Intn(numV)), Time: tm, Qty: float64(rng.Intn(9))})
		}
		items = append(items, BatchItem{From: VertexID(rng.Intn(numV)), To: VertexID(rng.Intn(numV)), Time: tm, Qty: float64(rng.Intn(9)) + 0.5})
	}

	whole := buildNetwork(t, numV, items)
	for _, cut := range []int{0, 1, len(items) / 2, len(items) - 1} {
		streamed := buildNetwork(t, numV, items[:cut])
		appended, err := streamed.AppendBatch(items[cut:])
		if err != nil {
			t.Fatalf("cut %d: AppendBatch: %v", cut, err)
		}
		wantAppended := 0
		for _, it := range items[cut:] {
			if it.From != it.To {
				wantAppended++
			}
		}
		if appended != wantAppended {
			t.Fatalf("cut %d: appended %d interactions, want %d", cut, appended, wantAppended)
		}
		if got, want := networkText(t, streamed), networkText(t, whole); got != want {
			t.Fatalf("cut %d: appended network text differs from rebuild", cut)
		}
		if streamed.Stats() != whole.Stats() {
			t.Fatalf("cut %d: stats %+v, want %+v", cut, streamed.Stats(), whole.Stats())
		}
		if streamed.MaxTime() != whole.MaxTime() {
			t.Fatalf("cut %d: MaxTime %v, want %v", cut, streamed.MaxTime(), whole.MaxTime())
		}
	}
}

func TestAppendOutOfOrderRejectedAtomically(t *testing.T) {
	n := buildNetwork(t, 4, []BatchItem{{0, 1, 5, 2}, {1, 2, 7, 3}})
	before := networkText(t, n)
	// Second item is fine, first is late: nothing must be applied.
	_, err := n.AppendBatch([]BatchItem{{2, 3, 6, 1}, {2, 3, 8, 1}})
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("AppendBatch late item: err = %v, want ErrOutOfOrder", err)
	}
	// In-batch regression is also out of order.
	_, err = n.AppendBatch([]BatchItem{{2, 3, 9, 1}, {2, 3, 8, 1}})
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("AppendBatch in-batch regression: err = %v, want ErrOutOfOrder", err)
	}
	if got := networkText(t, n); got != before {
		t.Fatal("failed AppendBatch mutated the network")
	}
	// Equal timestamps are legal and break ties after existing interactions.
	if _, err := n.AppendBatch([]BatchItem{{2, 3, 7, 1}}); err != nil {
		t.Fatalf("AppendBatch at MaxTime: %v", err)
	}
	if n.NumInteractions() != 3 {
		t.Fatalf("NumInteractions = %d, want 3", n.NumInteractions())
	}
}

func TestAppendValidation(t *testing.T) {
	n := buildNetwork(t, 3, []BatchItem{{0, 1, 1, 1}})
	for _, bad := range []BatchItem{
		{From: 0, To: 7, Time: 2, Qty: 1},
		{From: -1, To: 1, Time: 2, Qty: 1},
		{From: 0, To: 1, Time: 2, Qty: -3},
		{From: 0, To: 1, Time: math.NaN(), Qty: 1},
		{From: 0, To: 1, Time: 2, Qty: math.Inf(1)},
	} {
		if _, err := n.AppendBatch([]BatchItem{bad}); err == nil {
			t.Errorf("AppendBatch(%+v) succeeded, want error", bad)
		}
	}
	// Self loops are skipped, not errors.
	appended, err := n.AppendBatch([]BatchItem{{2, 2, 5, 1}, {1, 2, 5, 1}})
	if err != nil || appended != 1 {
		t.Fatalf("AppendBatch with self loop: appended=%d err=%v, want 1, nil", appended, err)
	}
}

// TestMergeUnorderedMatchesRebuild checks the out-of-order path: WithMerged
// merges late interactions in one step, the result is immediately
// queryable and appendable again, and it matches a from-scratch rebuild
// (base items first, then the late ones) byte for byte — also when heavy
// timestamp ties leave only the insertion-index tiebreak to order rows.
func TestMergeUnorderedMatchesRebuild(t *testing.T) {
	items := []BatchItem{{0, 1, 10, 5}, {1, 2, 20, 4}, {2, 3, 30, 3}}
	late := []BatchItem{{0, 2, 15, 2}, {1, 3, 5, 1}}

	n, appended, err := buildNetwork(t, 4, items).WithMerged(late)
	if err != nil || appended != 2 {
		t.Fatalf("WithMerged: appended=%d err=%v, want 2, nil", appended, err)
	}
	// No intermediate state: the merged network answers queries at once.
	n.ExtractSubgraph(0, DefaultExtractOptions())
	whole := buildNetwork(t, 4, append(append([]BatchItem{}, items...), late...))
	if got, want := networkText(t, n), networkText(t, whole); got != want {
		t.Fatalf("merged network text differs from rebuild:\n%s\nvs\n%s", got, want)
	}
	sameNetwork(t, whole, n)
	// In-order appends keep working after a merge.
	withBatch(t, n, BatchItem{3, 0, 40, 2})

	// A batch that happens to be in time order is a plain append.
	m, _, err := buildNetwork(t, 4, items).WithMerged([]BatchItem{{0, 2, 35, 1}})
	if err != nil {
		t.Fatal(err)
	}
	sameNetwork(t, buildNetwork(t, 4, append(append([]BatchItem{}, items...), BatchItem{0, 2, 35, 1})), m)

	// Validation is atomic, and self loops are skipped.
	before := networkText(t, m)
	if _, _, err := m.WithMerged([]BatchItem{{0, 1, 1, 1}, {0, 9, 2, 1}}); err == nil {
		t.Fatal("WithMerged with an out-of-range vertex succeeded, want error")
	}
	if got := networkText(t, m); got != before {
		t.Fatal("failed WithMerged left partial state behind")
	}
	if _, appended, err := m.WithMerged([]BatchItem{{2, 2, 1, 1}}); err != nil || appended != 0 {
		t.Fatalf("self-loop merge: appended=%d err=%v, want 0, nil", appended, err)
	}

	// Duplicate timestamps: times from a tiny domain, several merges in a
	// row, interleaved with in-order appends.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		numV := 3 + rng.Intn(4)
		randItems := func(k int, lo, span int) []BatchItem {
			out := make([]BatchItem, 0, k)
			for len(out) < k {
				f, to := VertexID(rng.Intn(numV)), VertexID(rng.Intn(numV))
				if f != to {
					out = append(out, BatchItem{f, to, float64(lo + rng.Intn(span)), float64(1 + rng.Intn(5))})
				}
			}
			return out
		}
		all := randItems(5+rng.Intn(20), 0, 4)
		n := buildNetwork(t, numV, all)
		for round := 0; round < 3; round++ {
			lateItems := randItems(1+rng.Intn(6), 0, 4)
			var err error
			if n, _, err = n.WithMerged(lateItems); err != nil {
				t.Fatalf("trial %d: WithMerged: %v", trial, err)
			}
			all = append(all, lateItems...)
			inOrder := randItems(1+rng.Intn(3), 4+round, 1)
			n = withBatch(t, n, inOrder...)
			all = append(all, inOrder...)
			sameNetwork(t, buildNetwork(t, numV, all), n)
		}
	}
}

func TestGrowVertices(t *testing.T) {
	n := buildNetwork(t, 2, []BatchItem{{0, 1, 1, 1}})
	if _, _, _, err := n.WithBatch([]BatchItem{{0, 2, 2, 1}}); err == nil {
		t.Fatal("append beyond vertex range succeeded, want error")
	}
	n = n.WithVertices(4)
	if n.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", n.NumVertices())
	}
	n = n.WithVertices(3) // shrink requests are no-ops
	if n.NumVertices() != 4 {
		t.Fatalf("NumVertices after no-op grow = %d, want 4", n.NumVertices())
	}
	n = withBatch(t, n, BatchItem{2, 3, 2, 1})
	if n.OutDegree(2) != 1 || n.InDegree(3) != 1 {
		t.Fatal("grown vertices did not receive the appended edge")
	}
}

// TestAppendEmptyNetwork covers the live-service bootstrap: a network
// finalized empty, then populated entirely by appends.
func TestAppendEmptyNetwork(t *testing.T) {
	n := NewBuilder(3).Finalize()
	if !math.IsInf(n.MaxTime(), -1) {
		t.Fatalf("empty MaxTime = %v, want -inf", n.MaxTime())
	}
	if _, err := n.AppendBatch([]BatchItem{{0, 1, 3, 2}, {1, 2, 4, 2}}); err != nil {
		t.Fatal(err)
	}
	whole := buildNetwork(t, 3, []BatchItem{{0, 1, 3, 2}, {1, 2, 4, 2}})
	if got, want := networkText(t, n), networkText(t, whole); got != want {
		t.Fatalf("append-only network text differs from rebuild:\n%s\nvs\n%s", got, want)
	}
}
