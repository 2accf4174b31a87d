package bench

import (
	"path/filepath"
	"slices"
	"testing"

	"flownet/internal/pattern"
	"flownet/internal/tin"
)

// The guard behind the incremental derived-state path: patching PB path
// tables forward from an ingest delta vs rebuilding them from scratch.

// appendedBenchNetwork returns a private copy of the bench corpus with an
// in-order batch appended (touching `deltaEdges` existing edges), plus the
// touched vertices (the changed edges' endpoints, ascending) and the tables
// built on the pre-append state — the exact inputs flownetd's warm-table
// path sees after an ingest.
func appendedBenchNetwork(tb testing.TB, deltaEdges int) (*tin.Network, []tin.VertexID, pattern.Tables) {
	tb.Helper()
	shared := loadBenchNetwork(tb)
	path := filepath.Join(tb.TempDir(), "net.tinb")
	if err := tin.SaveNetworkBinary(path, shared); err != nil {
		tb.Fatal(err)
	}
	n, err := tin.LoadNetwork(path)
	if err != nil {
		tb.Fatal(err)
	}
	before := pattern.Precompute(n, true)
	items := make([]tin.BatchItem, deltaEdges)
	for i := range items {
		ed := n.Edge(tin.EdgeID(i))
		items[i] = tin.BatchItem{From: ed.From, To: ed.To, Time: n.MaxTime() + float64(i) + 1, Qty: 1}
	}
	n, _, changed, err := n.WithBatch(items)
	if err != nil {
		tb.Fatal(err)
	}
	if len(changed) != deltaEdges {
		tb.Fatalf("delta covers %d edges, want %d", len(changed), deltaEdges)
	}
	var touched []tin.VertexID
	for _, e := range changed {
		touched = append(touched, n.Edge(e).From, n.Edge(e).To)
	}
	slices.Sort(touched)
	return n, slices.Compact(touched), before
}

// TestUpdateFasterThanRebuild is the CI guard on the acceptance criterion
// behind the warm-table path: on a small delta over the bench corpus,
// patching the tables forward must be at least 5x faster than rebuilding
// them from scratch — per-ingest derived-state cost must scale with the
// delta, not the network. The server patches whatever the delta's size, so
// on a 2 048-edge delta patching must still beat a rebuild.
func TestUpdateFasterThanRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	time := func(f func()) (best float64) {
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(func(b *testing.B) {
				for j := 0; j < b.N; j++ {
					f()
				}
			})
			if s := r.T.Seconds() / float64(r.N); best == 0 || s < best {
				best = s
			}
		}
		return best
	}
	for _, c := range []struct {
		deltaEdges int
		factor     float64
	}{{4, 5}, {2048, 1}} {
		n, touched, before := appendedBenchNetwork(t, c.deltaEdges)
		if before.Update(n, touched).L2 == nil || pattern.Precompute(n, true).L2 == nil {
			t.Fatalf("%d-edge delta: the update or the rebuild returned no L2 table", c.deltaEdges)
		}
		update := time(func() { before.Update(n, touched) })
		rebuild := time(func() { pattern.Precompute(n, true) })
		t.Logf("%d-edge delta (%d touched vertices): update %.3fms, rebuild %.3fms (%.1fx)",
			c.deltaEdges, len(touched), update*1e3, rebuild*1e3, rebuild/update)
		if rebuild < update*c.factor {
			t.Errorf("table update (%.3fms) is not >=%gx faster than rebuild (%.3fms) on a %d-edge delta",
				update*1e3, c.factor, rebuild*1e3, c.deltaEdges)
		}
	}
}
