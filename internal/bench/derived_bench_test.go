package bench

import (
	"fmt"
	"path/filepath"
	"testing"

	"flownet/internal/cache"
	"flownet/internal/pattern"
	"flownet/internal/tin"
)

// Benchmarks behind the incremental derived-state path (BENCH_ci.json in
// CI): patching PB path tables forward from an ingest delta vs rebuilding
// them from scratch, and the response-cache retention sweep vs the
// wholesale purge it replaced.

// appendedBenchNetwork returns a private copy of the bench corpus with a
// small in-order batch appended (touching `deltaEdges` existing edges),
// plus the changed-edge delta and the tables built on the pre-append
// state — the exact inputs flownetd's warm-table path sees after an
// ingest.
func appendedBenchNetwork(tb testing.TB, deltaEdges int) (*tin.Network, []tin.EdgeID, pattern.Tables) {
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
	_, changed, err := n.AppendBatchDelta(items)
	if err != nil {
		tb.Fatal(err)
	}
	if len(changed) != deltaEdges {
		tb.Fatalf("delta covers %d edges, want %d", len(changed), deltaEdges)
	}
	return n, changed, before
}

// BenchmarkTableUpdateVsRebuild measures the two ways to bring stale PB
// path tables current after a small ingest: pattern.Tables.Update over the
// changed-edge delta (cost scales with the affected anchor neighborhoods)
// vs a full pattern.Precompute (cost scales with the whole network). The
// ratio is the point of the warm-table path; TestUpdateFasterThanRebuild
// pins it.
func BenchmarkTableUpdateVsRebuild(b *testing.B) {
	n, changed, before := appendedBenchNetwork(b, 4)
	b.Run("update", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := before.Update(n, changed)
			if t.L2 == nil {
				b.Fatal("empty update result")
			}
		}
		b.ReportMetric(float64(len(changed)), "changed-edges/op")
	})
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := pattern.Precompute(n, true)
			if t.L2 == nil {
				b.Fatal("empty rebuild result")
			}
		}
		b.ReportMetric(float64(n.NumEdges()), "edges/op")
	})
}

// TestUpdateFasterThanRebuild is the CI guard on the acceptance criterion
// behind the warm-table path: on a small delta over the bench corpus,
// patching the tables forward must be at least 5x faster than rebuilding
// them from scratch — per-ingest derived-state cost must scale with the
// delta, not the network.
func TestUpdateFasterThanRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	n, changed, before := appendedBenchNetwork(t, 4)
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
	update := time(func() { before.Update(n, changed) })
	rebuild := time(func() { pattern.Precompute(n, true) })
	t.Logf("update %.3fms, rebuild %.3fms (%.1fx)", update*1e3, rebuild*1e3, rebuild/update)
	if rebuild < update*5 {
		t.Errorf("table update (%.3fms) is not >=5x faster than rebuild (%.3fms) on a %d-edge delta",
			update*1e3, rebuild*1e3, len(changed))
	}
}

// populatedResponseCache fills a response cache shaped like flownetd's:
// generation-tagged keys and a small vertex footprint per entry.
func populatedResponseCache(entries int) *cache.Cache[string, []tin.VertexID] {
	c := cache.New[string, []tin.VertexID](entries)
	for i := 0; i < entries; i++ {
		foot := []tin.VertexID{tin.VertexID(i % 1024), tin.VertexID((i + 7) % 1024)}
		c.Put(fmt.Sprintf("flow|bench|g1|seed|%d", i), foot)
	}
	return c
}

// BenchmarkCacheRetention measures the post-ingest cache sweep, per entry:
// the delta-aware retention pass (parse the key, test the footprint
// against the changed-vertex set, re-key survivors to the new generation)
// vs the wholesale purge it replaced. Retention does strictly
// more work per entry — the win is that survivors keep serving hits
// instead of being recomputed, which costs milliseconds per query.
func BenchmarkCacheRetention(b *testing.B) {
	const entries = 4096
	// An ingest touching 8 vertices: ~1.5% of entries are affected.
	touched := map[tin.VertexID]struct{}{}
	for v := tin.VertexID(0); v < 8; v++ {
		touched[v] = struct{}{}
	}
	b.Run("retain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := populatedResponseCache(entries)
			newTag := fmt.Sprintf("|g%d|", i+2)
			b.StartTimer()
			rekeyed, removed := c.Rekey(func(key string, foot []tin.VertexID) (string, bool) {
				for _, v := range foot {
					if _, hit := touched[v]; hit {
						return key, false
					}
				}
				return "flow|bench" + newTag + key[len("flow|bench|g1|"):], true
			})
			if rekeyed == 0 || removed == 0 {
				b.Fatalf("sweep retained %d / removed %d, want both > 0", rekeyed, removed)
			}
		}
		b.ReportMetric(entries, "entries/op")
	})
	b.Run("purge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := populatedResponseCache(entries)
			b.StartTimer()
			drop := func(key string, _ []tin.VertexID) (string, bool) { return key, false }
			if _, removed := c.Rekey(drop); removed != entries {
				b.Fatalf("purged %d entries, want %d", removed, entries)
			}
		}
		b.ReportMetric(entries, "entries/op")
	})
}
